#include "core/string_map.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "trace/md5.hpp"
#include "util/assert.hpp"

namespace gh {
namespace {

constexpr usize kRecordHeaderBytes = ArenaPayload::kRecordHeaderBytes;

/// Arena region bytes a new map provisions.
usize create_arena_bytes(const StringMapOptions& options) {
  const u64 cells = std::bit_ceil(std::max<u64>(options.map.initial_cells, 16));
  return ArenaPayload::region_bytes(std::max<u64>(cells * options.arena_bytes_per_cell, 4096));
}

/// The record of (key, value): value | key_len | key bytes.
std::string encode(std::string_view key, u64 value) {
  std::string buf(kRecordHeaderBytes + key.size(), '\0');
  const u64 key_len = key.size();
  std::memcpy(buf.data(), &value, sizeof(u64));
  std::memcpy(buf.data() + sizeof(u64), &key_len, sizeof(u64));
  std::memcpy(buf.data() + kRecordHeaderBytes, key.data(), key.size());
  return buf;
}

[[noreturn]] void throw_collision() {
  throw std::runtime_error("fingerprint collision between distinct keys");
}

}  // namespace

Key128 PersistentStringMap::fingerprint(std::string_view key) {
  trace::Md5 md5;
  md5.update(key.data(), key.size());
  return trace::Md5::to_key(md5.finish());
}

PersistentStringMap PersistentStringMap::create(const std::string& path,
                                                const StringMapOptions& options) {
  PersistentStringMap map;
  map.create_at(path, options.map, create_arena_bytes(options));
  return map;
}

PersistentStringMap PersistentStringMap::create_in_memory(const StringMapOptions& options) {
  PersistentStringMap map;
  map.options_ = options.map;
  map.init(/*fresh=*/true, create_arena_bytes(options));
  return map;
}

PersistentStringMap PersistentStringMap::open(const std::string& path,
                                              const StringMapOptions& options) {
  PersistentStringMap map;
  map.open_at(path, options.map);
  return map;
}

PersistentStringMap::Record PersistentStringMap::decode(const ArenaPayload& payload,
                                                        u64 offset) {
  const auto rec = payload.record(offset);
  u64 value = 0;
  std::memcpy(&value, rec.data(), sizeof(u64));
  const char* bytes = reinterpret_cast<const char*>(rec.data());
  return Record{std::string_view(bytes + kRecordHeaderBytes, rec.size() - kRecordHeaderBytes),
                value};
}

PersistentStringMap::Record PersistentStringMap::verified(const ArenaPayload& payload,
                                                          u64 offset, std::string_view key) {
  const Record rec = decode(payload, offset);
  if (rec.key != key) throw_collision();
  return rec;
}

void PersistentStringMap::locate(std::span<const Key128> fps, std::span<Hit> out, bool batch) {
  std::array<std::optional<u64>, Table::kBatchWindow> found;
  const auto probe = [&](Table& t, ArenaPayload& p) {
    if (batch) {
      t.find_batch(fps, std::span(found.data(), fps.size()));
    } else {
      found[0] = t.find(fps[0]);
    }
    for (usize i = 0; i < fps.size(); ++i) {
      if (out[i].payload == nullptr && found[i]) out[i] = {*found[i], &p};
    }
  };
  std::fill(out.begin(), out.end(), Hit{});
  if (mig_table_) probe(*mig_table_, mig_payload_);
  probe(table(), payload_);
}

void PersistentStringMap::store_value(ArenaPayload& payload, u64 offset, u64 value) {
  auto* word = const_cast<std::byte*>(payload.arena().read(offset, sizeof(u64)).data());
  pm_->atomic_store_u64(reinterpret_cast<u64*>(word), value);
  pm_->flush(word, sizeof(u64));
}

void PersistentStringMap::put(std::string_view key, u64 value) {
  GH_CHECK_MSG(!closed_, "map is closed");
  const Key128 fp = fingerprint(key);
  obs::OpScope op(sinks_, obs::OpKind::kInsert, fp.lo);
  put_keys({&key, 1}, {&fp, 1}, {&value, 1}, /*batch=*/false);
  op.end_flight();
  help_migrate();
}

void PersistentStringMap::put_batch(std::span<const std::string_view> keys,
                                    std::span<const u64> values) {
  GH_CHECK_MSG(!closed_, "map is closed");
  GH_CHECK_MSG(keys.size() == values.size(), "put_batch spans must have equal size");
  if (keys.empty()) return;
  std::vector<Key128> fps(keys.size());
  fps[0] = fingerprint(keys[0]);
  obs::OpScope op(sinks_, obs::OpKind::kInsert, fps[0].lo);
  for (usize i = 1; i < keys.size(); ++i) fps[i] = fingerprint(keys[i]);
  put_keys(keys, fps, values, /*batch=*/true);
  op.end_flight();
  help_migrate();
}

void PersistentStringMap::put_keys(std::span<const std::string_view> keys,
                                   std::span<const Key128> fps, std::span<const u64> values,
                                   bool batch) {
  // Windowed two-phase protocol mirroring the table's: per window, one
  // lookup sweep splits keys into updates (in-place 8-byte value
  // overwrites, flushed now, fenced once) and news (records appended
  // to the write file's arena now, cells placed through the core's
  // fence-coalesced window). A duplicate of a record appended earlier in
  // the same window updates that record in place — it is not yet
  // reachable from the table, so this is last-wins exactly like
  // sequential puts; duplicates across windows land on the committed
  // cell via the lookup. A put of one key is a window of one through the
  // table's scalar entry points.
  constexpr usize kWindow = Table::kBatchWindow;
  std::array<Hit, kWindow> found;
  std::array<usize, kWindow> new_idx;  ///< key index of each appended record
  std::array<Key128, kWindow> new_fps;
  std::array<u64, kWindow> new_offsets;
  usize i = 0;
  while (i < keys.size()) {
    const usize n = std::min<usize>(kWindow, keys.size() - i);
    locate(fps.subspan(i, n), std::span(found.data(), n), batch);
    // New records go where new cells go: the migration target's file
    // while a resize runs.
    ArenaPayload& dst = mig_table_ ? mig_payload_ : payload_;
    usize nnew = 0;
    bool flushed_updates = false;
    usize next = i + n;  // first key not durably applied
    Resize room = Resize::kGrow;
    u64 need = 0;
    for (usize w = 0; w < n; ++w) {
      const usize idx = i + w;
      if (found[w].payload != nullptr) {
        if (verified(*found[w].payload, found[w].offset, keys[idx]).value != values[idx]) {
          store_value(*found[w].payload, found[w].offset, values[idx]);
          flushed_updates = true;
        }
        continue;
      }
      usize dup = 0;
      while (dup < nnew && new_fps[dup] != fps[idx]) ++dup;
      if (dup < nnew) {
        if (keys[new_idx[dup]] != keys[idx]) throw_collision();
        store_value(dst, new_offsets[dup], values[idx]);
        flushed_updates = true;
        continue;
      }
      const std::string rec = encode(keys[idx], values[idx]);
      // During a migration a new record may take only the target arena's
      // put room: the rest is kept for the records the copies move.
      const u64 len = round_up(rec.size(), kAtomicUnit);
      const bool fits = !mig_table_ || len <= mig_put_room_;
      const auto offset = fits ? dst.arena().append(rec.data(), rec.size()) : std::nullopt;
      if (!offset) {
        next = idx;
        room = Resize::kCompact;
        need = rec.size();
        break;
      }
      if (mig_table_) mig_put_room_ -= len;
      new_idx[nnew] = idx;
      new_fps[nnew] = fps[idx];
      new_offsets[nnew++] = *offset;
    }
    // Durability point of the window. The new records are durable
    // already: append() persists each record and the arena head before
    // it returns. The in-place value updates need one fence, issued
    // before the table window so that a new cell never commits ahead of
    // its record's final value (a duplicate key updates a record
    // appended in this same window).
    if (flushed_updates) pm_->fence();
    if (nnew > 0) {
      const usize placed = place(std::span<const Key128>(new_fps.data(), nnew),
                                 std::span<const u64>(new_offsets.data(), nnew), batch);
      if (placed < nnew) {
        next = new_idx[placed];
        room = Resize::kGrow;
        need = 0;
      }
    }
    // Out of room: the full arena asks for a compaction, a full table for
    // growth, and either finishes a running migration first. Records
    // appended for keys from `next` on are unreachable garbage the resize
    // drops; those keys re-enter the window loop.
    if (next < i + n) make_room(room, need);
    i = next;
  }
}

void PersistentStringMap::get_batch(std::span<const std::string_view> keys,
                                    std::span<std::optional<u64>> out) {
  GH_CHECK_MSG(keys.size() == out.size(), "get_batch spans must have equal size");
  if (keys.empty()) return;
  constexpr usize kWindow = Table::kBatchWindow;
  std::array<Key128, kWindow> fps;
  std::array<Hit, kWindow> found;
  fps[0] = fingerprint(keys[0]);
  obs::OpScope op(sinks_, obs::OpKind::kFind, fps[0].lo);
  for (usize i = 0; i < keys.size(); i += kWindow) {
    const usize n = std::min<usize>(kWindow, keys.size() - i);
    for (usize w = i == 0 ? 1 : 0; w < n; ++w) fps[w] = fingerprint(keys[i + w]);
    locate(std::span(fps.data(), n), std::span(found.data(), n), /*batch=*/true);
    // Verify key bytes, prefetching a few records ahead so the arena
    // loads overlap the byte compares.
    constexpr usize kLookahead = 4;
    for (usize w = 0; w < n; ++w) {
      if (w + kLookahead < n && found[w + kLookahead].payload != nullptr) {
        const Hit& ahead = found[w + kLookahead];
        __builtin_prefetch(ahead.payload->arena().data() + ahead.offset);
      }
      out[i + w] = found[w].payload == nullptr
                       ? std::nullopt
                       : std::optional<u64>(
                             verified(*found[w].payload, found[w].offset, keys[i + w]).value);
    }
  }
}

void PersistentStringMap::erase_batch(std::span<const std::string_view> keys,
                                      std::span<u8> hits) {
  std::vector<Key128> fps(keys.size());
  for (usize i = 0; i < keys.size(); ++i) fps[i] = fingerprint(keys[i]);
  Core::erase_batch(fps, hits);
}

std::optional<u64> PersistentStringMap::get(std::string_view key) {
  const Key128 fp = fingerprint(key);
  obs::OpScope op(sinks_, obs::OpKind::kFind, fp.lo);
  Hit hit;
  locate({&fp, 1}, {&hit, 1}, /*batch=*/false);
  if (hit.payload == nullptr) return std::nullopt;
  return verified(*hit.payload, hit.offset, key).value;
}

bool PersistentStringMap::erase(std::string_view key) { return Core::erase(fingerprint(key)); }

PersistentStringMap::ArenaUsage PersistentStringMap::arena_usage() const {
  ArenaUsage a;
  // After abandon() the tables and arenas are gone; report zeros.
  if (!table_) return a;
  const auto add = [&a](const Table& t, const ArenaPayload& p) {
    a.used += p.arena().head();
    a.live += p.live_bytes(t);
    a.capacity += p.capacity();
  };
  if (mig_table_) add(*mig_table_, mig_payload_);
  add(table(), payload_);
  return a;
}

void PersistentStringMap::compact() {
  GH_CHECK_MSG(!closed_, "map is closed");
  // Start one (which drains its migrate_groups_per_op share) and drain
  // the rest, or drain the one running. A step that fails inside this
  // call is retried by the next, as after any resize failure.
  const bool running = mig_table_.has_value();
  if (!running && !try_expand(Resize::kCompact)) return;
  if (running || (mig_table_ && mig_cursor_ < mig_total_groups_)) migrate_step(~0ull);
}

PersistentStringMap::ReadSnapshot PersistentStringMap::read_snapshot() const {
  const auto window = [](const ArenaPayload& p) {
    return ArenaWindow{p.arena().data(), p.capacity()};
  };
  if (!mig_table_) return {Core::read_snapshot(), window(payload_), {}};
  return {Core::read_snapshot(), window(mig_payload_), window(payload_)};
}

bool PersistentStringMap::optimistic_probe(const ReadSnapshot& snap, const ProbeKey& key,
                                           std::optional<u64>& out) {
  // New-then-old, as core::optimistic_find, but the hit's table names
  // the arena its record lives in.
  const core::TableReadView<hash::Cell32>& v = snap.view;
  const u64 h = v.hash(key.fp);
  auto offset = core::optimistic_probe(v.primary(), h, key.fp);
  ArenaWindow arena = snap.arena;
  if (!offset && v.dual_view()) {
    offset = core::optimistic_probe(v.old(), h, key.fp);
    arena = snap.old_arena;
  }
  if (!offset.has_value()) {
    out = std::nullopt;  // absent (trustworthy iff the epoch validates)
    return true;
  }
  // A torn/stale cell can surface a garbage offset: never dereference
  // outside the snapshot's arena window (checked without overflow).
  const u64 room = *offset <= arena.capacity ? arena.capacity - *offset : 0;
  if (room < kRecordHeaderBytes) return false;
  const auto* record = reinterpret_cast<const u64*>(arena.data + *offset);
  const u64 value = core::atomic_load_acquire(record[0]);
  const u64 key_len = core::atomic_load_acquire(record[1]);
  if (key_len != key.key.size()) return false;  // collision or torn — escalate
  if (room - kRecordHeaderBytes < key_len) return false;
  // Plain reads, race-free: the offset came from an acquire-loaded cell
  // word released AFTER these bytes were written (DirectPM), and
  // committed records are immutable except their value word.
  if (std::memcmp(arena.data + *offset + kRecordHeaderBytes, key.key.data(), key_len) != 0) {
    return false;
  }
  out = value;
  return true;
}

bool PersistentStringMap::optimistic_probe_batch(const ReadSnapshot& snap,
                                                 std::span<const ProbeKey> keys,
                                                 std::span<std::optional<u64>> out) {
  for (usize i = 0; i < keys.size(); ++i) {
    if (!optimistic_probe(snap, keys[i], out[i])) return false;
  }
  return true;
}

}  // namespace gh
