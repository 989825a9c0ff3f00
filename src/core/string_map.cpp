#include "core/string_map.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "nvm/fault_fs.hpp"
#include "trace/md5.hpp"
#include "util/assert.hpp"
#include "util/crc32c.hpp"

namespace gh {
namespace {

constexpr u64 kMagic = 0x4748534d41503031ull;  // "GHSMAP01"
constexpr u64 kVersion = 2;  // v2: + superblock/group checksums
constexpr u64 kStateClean = 0x636c65616eull;
constexpr u64 kStateDirty = 0x6469727479ull;
constexpr usize kSuperblockBytes = 4096;

/// Suffix of the temp file rebuild() (compaction) builds before the
/// rename publish. A crash mid-publish can leave it behind; open()
/// reclaims it.
constexpr const char* kCompactSuffix = ".compact";

/// Suffix of the flight-recorder sidecar (obs/flight_recorder.hpp).
constexpr const char* kFlightSuffix = ".flight";

/// Arena record layout: value (u64) | key_len (u64) | key bytes.
constexpr usize kRecordHeaderBytes = 2 * sizeof(u64);

/// Cap of the exponential compaction backoff, counted in placement-
/// failure events absorbed between retries.
constexpr u64 kMaxCompactBackoff = 64;

u64 pow2_at_least(u64 v) {
  u64 p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Bytes of an arena for `data_bytes` of records, in whole lines so the
/// index table placed after it starts on one: CommitOrder::kSameLine
/// needs line-aligned cells.
usize arena_bytes_for(usize data_bytes) {
  using Arena = nvm::PersistentArena<nvm::DirectPM>;
  return Arena::required_bytes(round_up(data_bytes, kCachelineSize));
}

}  // namespace

struct PersistentStringMap::Superblock {
  u64 magic;
  u64 version;
  u64 state;  ///< excluded from the checksum; 8-byte atomically flipped
  u64 arena_offset;
  u64 arena_bytes;
  u64 table_offset;
  u64 table_bytes;
  u64 seed;
  u64 crc;  ///< CRC32C of the geometry fields above (state excluded)

  /// Checksum of every immutable field; verified before the geometry is
  /// trusted on open(), recomputed when a rebuild publishes new bounds.
  [[nodiscard]] u32 compute_crc() const {
    u32 c = crc32c_update(~0u, &magic, sizeof(u64));
    c = crc32c_update(c, &version, sizeof(u64));
    c = crc32c_update(c, &arena_offset, sizeof(u64));
    c = crc32c_update(c, &arena_bytes, sizeof(u64));
    c = crc32c_update(c, &table_offset, sizeof(u64));
    c = crc32c_update(c, &table_bytes, sizeof(u64));
    c = crc32c_update(c, &seed, sizeof(u64));
    return ~c;
  }
};

Key128 PersistentStringMap::fingerprint(std::string_view key) {
  trace::Md5 md5;
  md5.update(key.data(), key.size());
  return trace::Md5::to_key(md5.finish());
}

PersistentStringMap::Superblock* PersistentStringMap::superblock() {
  return reinterpret_cast<Superblock*>(region_.data());
}

void PersistentStringMap::init_region(nvm::NvmRegion region,
                                      const StringMapOptions& options, bool fresh) {
  region_ = std::move(region);
  if (!pm_) {
    pm_ = std::make_unique<nvm::DirectPM>(
        nvm::PersistConfig{.flush_latency_ns = options.flush_latency_ns});
  }
  if (!recorder_) {
    recorder_ = std::make_unique<obs::OpRecorder>();
    obs_reg_ = obs::Registration(
        "PersistentStringMap" + (path_.empty() ? std::string("(mem)") : ":" + path_),
        recorder_.get());
  }
  sinks_.latency = options.record_latency ? recorder_.get() : nullptr;
  sinks_.gate.set_shift(options.latency_sample_shift);
  // The flight sidecar comes up BEFORE recovery so the scan of the
  // previous run's rings is available to the recovery report below.
  init_flight(options, fresh);
  if (fresh) {
    const u64 cells = pow2_at_least(std::max<u64>(options.initial_cells, 16));
    const usize arena_bytes =
        arena_bytes_for(std::max<usize>(cells * options.arena_bytes_per_cell, 4096));
    const typename Table::Params params{
        .level_cells = cells / 2,
        .group_size =
            static_cast<u32>(std::min<u64>(pow2_at_least(options.group_size), cells / 2)),
        .count_mode = hash::CountMode::kRecoveryOnly,
        .group_crc = options.checksum_groups,
        .commit_order = hash::CommitOrder::kSameLine};
    const usize table_bytes = Table::required_bytes(params);
    GH_CHECK(region_.size() >= kSuperblockBytes + arena_bytes + table_bytes);
    arena_.emplace(*pm_, region_.bytes().subspan(kSuperblockBytes, arena_bytes),
                   /*format=*/true);
    table_.emplace(*pm_,
                   region_.bytes().subspan(kSuperblockBytes + arena_bytes, table_bytes),
                   params, /*format=*/true);
    Superblock* sb = superblock();
    pm_->store_u64(&sb->magic, kMagic);
    pm_->store_u64(&sb->version, kVersion);
    pm_->store_u64(&sb->state, kStateDirty);
    pm_->store_u64(&sb->arena_offset, kSuperblockBytes);
    pm_->store_u64(&sb->arena_bytes, arena_bytes);
    pm_->store_u64(&sb->table_offset, kSuperblockBytes + arena_bytes);
    pm_->store_u64(&sb->table_bytes, table_bytes);
    pm_->store_u64(&sb->seed, params.seed);
    pm_->store_u64(&sb->crc, sb->compute_crc());
    pm_->persist(sb, sizeof(Superblock));
  } else {
    Superblock* sb = superblock();
    if (sb->magic != kMagic) throw std::runtime_error("not a PersistentStringMap file");
    if (sb->version != kVersion) throw std::runtime_error("unsupported string-map version");
    // The geometry must checksum before it is trusted: a bit-rot hit on
    // the superblock fails the open instead of forging layout bounds.
    if (sb->crc != sb->compute_crc()) {
      throw std::runtime_error("PersistentStringMap superblock is corrupt (checksum mismatch)");
    }
    // Validate the published geometry before trusting it: a torn or
    // forged superblock must fail the open, not index out of bounds.
    if (sb->arena_offset < kSuperblockBytes || sb->arena_bytes == 0 ||
        sb->arena_bytes > region_.size() ||
        sb->arena_offset > region_.size() - sb->arena_bytes ||
        sb->table_offset < sb->arena_offset + sb->arena_bytes || sb->table_bytes == 0 ||
        sb->table_bytes > region_.size() ||
        sb->table_offset > region_.size() - sb->table_bytes) {
      throw std::runtime_error("PersistentStringMap superblock is corrupt (layout bounds)");
    }
    arena_.emplace(*pm_, region_.bytes().subspan(sb->arena_offset, sb->arena_bytes),
                   /*format=*/false);
    // An image whose arena is not a whole number of lines has unaligned
    // cells, so it keeps the fenced commit.
    const hash::CommitOrder order = sb->table_offset % kCachelineSize == 0
                                        ? hash::CommitOrder::kSameLine
                                        : hash::CommitOrder::kFenced;
    table_.emplace(Table::attach(*pm_,
                                 region_.bytes().subspan(sb->table_offset, sb->table_bytes),
                                 hash::CountMode::kRecoveryOnly, order));
    if (sb->state == kStateDirty) {
      obs::OpScope op(sinks_, obs::OpKind::kRecover, 0, obs::FlightEdge::kAlways);
      open_recovery_ = table_->recover();
      // Attach the black box's forensics: how many ops the previous run
      // had in flight when it died (what this recovery is repairing).
      open_recovery_.in_flight_ops = flight_scan_.in_flight.size();
      recoveries_++;
      recovered_on_open_ = true;
    }
    mark_state(kStateDirty);
  }
}

void PersistentStringMap::init_flight(const StringMapOptions& options, bool fresh) {
  if constexpr (!obs::kEnabled) return;  // never create a sidecar when compiled out
  if (options.flight_mode == obs::FlightMode::kOff) return;
  const usize need = obs::flight_required_bytes();
  if (path_.empty()) {
    flight_region_ = nvm::NvmRegion::create_anonymous(need);
  } else {
    const std::string fpath = path_ + kFlightSuffix;
    std::error_code ec;
    if (!fresh && std::filesystem::exists(fpath, ec)) {
      // Reopen: read the black box before it is consumed. Anything wrong
      // with the sidecar only costs the forensics — never the map open.
      flight_region_ = nvm::NvmRegion::open_file(fpath);
      flight_scan_ = obs::scan_flight(flight_region_.bytes());
      if (flight_region_.size() < need) {
        flight_region_ = nvm::NvmRegion::create_file(fpath, need);
      }
    } else {
      flight_region_ = nvm::NvmRegion::create_file(fpath, need);
    }
  }
  // The recorder gets its own PM: same latency model as the data path,
  // but black-box flushes never pollute the map's write-efficiency
  // counters (lines_flushed per op is a headline metric of the paper).
  flight_pm_ = std::make_unique<nvm::DirectPM>(
      nvm::PersistConfig{.flush_latency_ns = options.flush_latency_ns});
  flight_ = std::make_unique<obs::FlightRecorder>(
      *flight_pm_, flight_region_.bytes());  // formats (consumes) the rings
  flight_->set_mode(options.flight_mode);
  sinks_.flight = flight_.get();
}

PersistentStringMap PersistentStringMap::create(const std::string& path,
                                                const StringMapOptions& options) {
  PersistentStringMap map;
  map.path_ = path;
  map.options_ = options;
  const u64 cells = pow2_at_least(std::max<u64>(options.initial_cells, 16));
  const usize arena_bytes =
      arena_bytes_for(std::max<usize>(cells * options.arena_bytes_per_cell, 4096));
  const usize table_bytes = Table::required_bytes(
      {.level_cells = cells / 2,
       .group_size =
           static_cast<u32>(std::min<u64>(pow2_at_least(options.group_size), cells / 2)),
       .group_crc = options.checksum_groups});
  // A stale temp file from a crashed compaction of a previous map at
  // this path must not survive into the new map's lifetime.
  nvm::reclaim_orphan(path + kCompactSuffix);
  map.init_region(
      nvm::NvmRegion::create_file(path, kSuperblockBytes + arena_bytes + table_bytes),
      options, /*fresh=*/true);
  // Make the creation itself durable: the file's directory entry is not
  // guaranteed to survive a power failure until its parent is fsynced.
  if (!nvm::FaultFs::sync_dir(nvm::parent_dir(path))) {
    throw std::runtime_error("failed to fsync parent directory of " + path);
  }
  return map;
}

PersistentStringMap PersistentStringMap::create_in_memory(const StringMapOptions& options) {
  PersistentStringMap map;
  map.options_ = options;
  const u64 cells = pow2_at_least(std::max<u64>(options.initial_cells, 16));
  const usize arena_bytes =
      arena_bytes_for(std::max<usize>(cells * options.arena_bytes_per_cell, 4096));
  const usize table_bytes = Table::required_bytes(
      {.level_cells = cells / 2,
       .group_size =
           static_cast<u32>(std::min<u64>(pow2_at_least(options.group_size), cells / 2)),
       .group_crc = options.checksum_groups});
  map.init_region(
      nvm::NvmRegion::create_anonymous(kSuperblockBytes + arena_bytes + table_bytes),
      options, /*fresh=*/true);
  return map;
}

PersistentStringMap PersistentStringMap::open(const std::string& path,
                                              const StringMapOptions& options) {
  PersistentStringMap map;
  map.path_ = path;
  map.options_ = options;
  // A crashed compaction can leave a stale temp file behind. It is never
  // the authoritative copy (only the rename publishes it), so reclaim it
  // before trusting anything at `path`.
  if (nvm::reclaim_orphan(path + kCompactSuffix)) map.orphans_reclaimed_++;
  map.init_region(nvm::NvmRegion::open_file(path), options, /*fresh=*/false);
  return map;
}

PersistentStringMap::~PersistentStringMap() {
  if (region_.valid() && !closed_) close();
}

void PersistentStringMap::mark_state(u64 state) {
  Superblock* sb = superblock();
  pm_->atomic_store_u64(&sb->state, state);
  pm_->persist(&sb->state, sizeof(u64));
}

void PersistentStringMap::close() {
  if (!region_.valid() || closed_) return;
  // The index table runs CountMode::kRecoveryOnly: seal its count and
  // checksum words (one fence) before the clean mark makes open() trust
  // them. A table that never attached has nothing to seal.
  if (table_) table_->seal();
  mark_state(kStateClean);
  region_.sync();
  if (flight_region_.valid() && flight_region_.file_backed()) flight_region_.sync();
  closed_ = true;
}

void PersistentStringMap::abandon() {
  if (!region_.valid() || closed_) return;
  // No mark_state: the superblock stays dirty, exactly like a crash.
  table_.reset();
  arena_.reset();
  region_ = nvm::NvmRegion();
  retired_regions_.clear();
  // The flight sidecar is dropped the same way — no final sync, no
  // cleanup. Its mmap'd writes are in the page cache, so the reopening
  // process scans exactly what a crash would have left durable.
  flight_.reset();
  sinks_.flight = nullptr;
  flight_region_ = nvm::NvmRegion();
  closed_ = true;
  // Observability resets coherently with the simulated crash: snapshot()
  // and arena_usage() now report zeros, the same blank slate the
  // recovering open() starts from.
  compactions_ = 0;
  recoveries_ = 0;
  compact_failures_ = 0;
  pm_->stats() = nvm::PersistStats{};
  if (flight_pm_) flight_pm_->stats() = nvm::PersistStats{};
  if (recorder_) recorder_->reset();
}

PersistentStringMap::ReadSnapshot PersistentStringMap::read_snapshot() const {
  ReadSnapshot s;
  s.tab1 = &table().level1_cell(0);
  s.tab2 = &table().level2_cell(0);
  s.mask = table().level_cells() - 1;
  s.group_size = table().group_size();
  s.seed = table().seed();
  s.arena_data = arena().data();
  s.arena_capacity = arena().capacity();
  s.tags = table().tags_shared();
  s.tags1 = s.tags.get();
  s.tags2 = s.tags1 + table().level_cells();
  return s;
}

PersistentStringMap::Record PersistentStringMap::load_record(u64 offset) const {
  const auto header = arena().read(offset, kRecordHeaderBytes);
  u64 value, key_len;
  std::memcpy(&value, header.data(), sizeof(u64));
  std::memcpy(&key_len, header.data() + sizeof(u64), sizeof(u64));
  const auto key_bytes = arena().read(offset + kRecordHeaderBytes, key_len);
  return Record{
      std::string_view(reinterpret_cast<const char*>(key_bytes.data()), key_len), value};
}

std::optional<u64> PersistentStringMap::append_record(std::string_view key, u64 value) {
  std::string buf;
  buf.resize(kRecordHeaderBytes + key.size());
  const u64 key_len = key.size();
  std::memcpy(buf.data(), &value, sizeof(u64));
  std::memcpy(buf.data() + sizeof(u64), &key_len, sizeof(u64));
  std::memcpy(buf.data() + kRecordHeaderBytes, key.data(), key.size());
  return arena().append(buf.data(), buf.size());
}

void PersistentStringMap::put(std::string_view key, u64 value) {
  GH_CHECK_MSG(!closed_, "map is closed");
  const Key128 fp = fingerprint(key);
  obs::OpScope op(sinks_, obs::OpKind::kInsert, fp.lo);
  put_keys({&key, 1}, {&fp, 1}, {&value, 1}, /*batch=*/false);
}

bool PersistentStringMap::try_grow(bool double_table) {
  if (compact_cooldown_ > 0) {
    // Still backing off: absorb this placement failure without retrying.
    compact_cooldown_--;
    return false;
  }
  try {
    grow(double_table);
  } catch (const nvm::SimulatedCrash&) {
    throw;  // a simulated power failure must freeze the world, not degrade
  } catch (const std::exception& e) {
    if (flight_) flight_->event(obs::FlightEvent::kDegraded, obs::OpKind::kCompact);
    compact_failures_++;
    compact_pending_ = true;
    last_compact_error_ = e.what();
    compact_backoff_ =
        compact_backoff_ == 0 ? 1 : std::min<u64>(compact_backoff_ * 2, kMaxCompactBackoff);
    compact_cooldown_ = compact_backoff_;
    return false;
  }
  compact_pending_ = false;
  compact_backoff_ = 0;
  compact_cooldown_ = 0;
  return true;
}

void PersistentStringMap::get_batch(std::span<const std::string_view> keys,
                                    std::span<std::optional<u64>> out) {
  GH_CHECK_MSG(keys.size() == out.size(), "get_batch spans must have equal size");
  if (keys.empty()) return;
  std::vector<Key128> fps(keys.size());
  fps[0] = fingerprint(keys[0]);
  obs::OpScope op(sinks_, obs::OpKind::kFind, fps[0].lo);
  for (usize i = 1; i < keys.size(); ++i) fps[i] = fingerprint(keys[i]);
  table().find_batch(fps, out);
  // Verify key bytes, prefetching a few records ahead so the arena loads
  // overlap the byte compares.
  constexpr usize kLookahead = 4;
  for (usize i = 0; i < keys.size(); ++i) {
    if (i + kLookahead < keys.size() && out[i + kLookahead]) {
      __builtin_prefetch(arena().read(*out[i + kLookahead], kRecordHeaderBytes).data());
    }
    if (!out[i]) continue;
    const Record rec = load_record(*out[i]);
    if (rec.key != keys[i]) {
      throw std::runtime_error("fingerprint collision between distinct keys");
    }
    out[i] = rec.value;
  }
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
}

void PersistentStringMap::put_keys(std::span<const std::string_view> keys,
                                   std::span<const Key128> fps, std::span<const u64> values,
                                   bool batch) {
  // Windowed two-phase protocol mirroring the table's: per window, one
  // lookup sweep splits keys into updates (in-place 8-byte value
  // overwrites, flushed now, fenced once) and news (records appended
  // now, cells inserted through the table's fence-coalesced window). A
  // duplicate of a record appended earlier in the same window updates
  // that record in place — it is not yet reachable from the table, so
  // this is last-wins exactly like sequential puts; duplicates across
  // windows land on the committed cell via the lookup. A put of one key
  // is a window of one through the table's scalar entry points.
  constexpr usize kWindow = Table::kBatchWindow;
  struct Pending {
    usize idx;   ///< index into keys (first occurrence)
    u64 offset;  ///< appended record
  };
  std::array<std::optional<u64>, kWindow> found;
  std::array<Pending, kWindow> news;
  std::array<Key128, kWindow> new_fps;
  std::array<u64, kWindow> new_offsets;
  const auto store_value = [&](u64 offset, u64 value) {
    auto* value_word = const_cast<std::byte*>(arena().read(offset, sizeof(u64)).data());
    pm_->atomic_store_u64(reinterpret_cast<u64*>(value_word), value);
    pm_->flush(value_word, sizeof(u64));
  };

  usize i = 0;
  u32 grow_attempt = 0;  // rebuilds since the last progress
  while (i < keys.size()) {
    const usize n = std::min<usize>(kWindow, keys.size() - i);
    if (batch) {
      table().find_batch(fps.subspan(i, n), std::span(found.data(), n));
    } else {
      found[0] = table().find(fps[i]);
    }
    usize nnew = 0;
    bool flushed_updates = false;
    usize next = i + n;  // first key not durably applied
    for (usize w = 0; w < n; ++w) {
      const usize idx = i + w;
      if (found[w]) {
        const Record rec = load_record(*found[w]);
        if (rec.key != keys[idx]) {
          throw std::runtime_error("fingerprint collision between distinct keys");
        }
        if (rec.value != values[idx]) {
          store_value(*found[w], values[idx]);
          flushed_updates = true;
        }
        continue;
      }
      const Pending* dup = nullptr;
      for (usize u = 0; u < nnew && dup == nullptr; ++u) {
        if (fps[news[u].idx] == fps[idx]) dup = &news[u];
      }
      if (dup) {
        if (keys[dup->idx] != keys[idx]) {
          throw std::runtime_error("fingerprint collision between distinct keys");
        }
        store_value(dup->offset, values[idx]);
        flushed_updates = true;
        continue;
      }
      const auto offset = append_record(keys[idx], values[idx]);
      if (!offset) {
        next = idx;
        break;
      }
      news[nnew++] = {idx, *offset};
    }
    // Durability point of the window. The new records are durable
    // already: append() persists each record and the arena head before
    // it returns. The in-place value updates need one fence, issued
    // before the table window so that a new cell never commits ahead of
    // its record's final value (a duplicate key updates a record
    // appended in this same window).
    if (flushed_updates) pm_->fence();
    if (nnew > 0) {
      for (usize u = 0; u < nnew; ++u) {
        new_fps[u] = fps[news[u].idx];
        new_offsets[u] = news[u].offset;
      }
      const usize inserted =
          batch ? table().insert_batch(std::span(new_fps.data(), nnew),
                                       std::span(new_offsets.data(), nnew))
                : usize{table().insert(new_fps[0], new_offsets[0])};
      if (inserted < nnew) next = news[inserted].idx;
    }
    if (next < i + n) {
      // Out of table or arena space. Records appended for keys from
      // `next` on are unreachable garbage the rebuild reclaims; those
      // keys re-enter the window loop afterwards. Escalation per stuck
      // key: compact first; when that did not get it placed, double.
      if (!options_.auto_compact) throw std::runtime_error("PersistentStringMap is full");
      if (next > i) grow_attempt = 0;
      if (!try_grow(/*double_table=*/grow_attempt++ > 0)) {
        throw MapDegradedError("PersistentStringMap insert deferred: compaction failing (" +
                               last_compact_error_ + "); will retry with backoff");
      }
    }
    i = next;
  }
}

void PersistentStringMap::erase_batch(std::span<const std::string_view> keys,
                                      std::span<u8> hits) {
  GH_CHECK_MSG(!closed_, "map is closed");
  if (keys.empty()) return;
  std::vector<Key128> fps(keys.size());
  fps[0] = fingerprint(keys[0]);
  obs::OpScope op(sinks_, obs::OpKind::kErase, fps[0].lo);
  for (usize i = 1; i < keys.size(); ++i) fps[i] = fingerprint(keys[i]);
  table().erase_batch(fps, hits);
}

std::optional<u64> PersistentStringMap::get(std::string_view key) {
  const Key128 fp = fingerprint(key);
  obs::OpScope op(sinks_, obs::OpKind::kFind, fp.lo);
  const auto offset = table().find(fp);
  if (!offset) return std::nullopt;
  const Record rec = load_record(*offset);
  if (rec.key != key) {
    throw std::runtime_error("fingerprint collision between distinct keys");
  }
  return rec.value;
}

bool PersistentStringMap::contains(std::string_view key) { return get(key).has_value(); }

bool PersistentStringMap::erase(std::string_view key) {
  GH_CHECK_MSG(!closed_, "map is closed");
  const Key128 fp = fingerprint(key);
  obs::OpScope op(sinks_, obs::OpKind::kErase, fp.lo);
  return table().erase(fp);
}

PersistentStringMap::ArenaUsage PersistentStringMap::arena_usage() const {
  ArenaUsage a;
  // After abandon() the table and arena are gone; report zeros instead
  // of dereferencing them.
  if (!table_) return a;
  a.used = arena().head();
  a.capacity = arena().capacity();
  table().for_each([&](const Key128&, u64 offset) {
    const Record rec = load_record(offset);
    a.live += round_up(kRecordHeaderBytes + rec.key.size(), kAtomicUnit);
  });
  return a;
}

void PersistentStringMap::compact() { grow(/*double_table=*/false); }

void PersistentStringMap::grow(bool double_table) {
  // Size the new region for current contents with headroom.
  const ArenaUsage a = arena_usage();
  const u64 cells = double_table
                        ? table().capacity() * 2
                        : std::max<u64>(size() * 2, std::max<u64>(table().capacity(), 16));
  rebuild(pow2_at_least(cells), std::max<usize>(a.live * 2 + 4096, a.capacity));
  compactions_++;
}

obs::Snapshot PersistentStringMap::snapshot() {
  obs::Snapshot s;
  s.source = "PersistentStringMap";
  if (table_) {
    s.size = table().count();
    s.capacity = table().capacity();
    s.load_factor = table().load_factor();
    s.table = obs::TableOpSnapshot::from(table().stats());
    s.scrub = obs::ScrubSnapshot::from(table().stats(), hash::ScrubReport{});
  }
  if (pm_) s.persist = obs::PersistSnapshot::from(pm_->stats());
  s.lifecycle.compactions = compactions_;
  s.lifecycle.compact_failures = compact_failures_;
  s.lifecycle.recoveries = recoveries_;
  s.lifecycle.orphans_reclaimed = orphans_reclaimed_;
  s.lifecycle.degraded = compact_pending_;
  if (recorder_) s.latency = obs::OpLatencySnapshot::from(*recorder_);
  s.flight.enabled = flight_ != nullptr;
  if (flight_scan_.valid_header) {
    s.flight.records_scanned = flight_scan_.records_valid;
    s.flight.records_torn = flight_scan_.records_torn;
    for (const auto& op : flight_scan_.in_flight) {
      s.flight.in_flight_on_open.push_back(
          obs::FlightOpBrief{op.kind, op.phase, op.seqno, op.key_hash});
    }
  }
  return s;
}

void PersistentStringMap::rebuild(u64 new_cells, usize new_arena_data_bytes) {
  // Lifecycle ops always hit the flight recorder (no sampling): a crash
  // mid-compaction is exactly what the black box exists to explain.
  obs::OpScope op(sinks_, obs::OpKind::kCompact, new_cells, obs::FlightEdge::kAlways);
  const usize arena_bytes = arena_bytes_for(new_arena_data_bytes);
  const typename Table::Params params{
      .level_cells = new_cells / 2,
      .group_size =
          static_cast<u32>(std::min<u64>(table().group_size(), new_cells / 2)),
      .seed = table().seed(),
      .count_mode = hash::CountMode::kRecoveryOnly,
      .group_crc = table().checksums_enabled(),
      .commit_order = hash::CommitOrder::kSameLine};
  const usize table_bytes = Table::required_bytes(params);
  const usize total = kSuperblockBytes + arena_bytes + table_bytes;

  const bool file_backed = region_.file_backed();
  const std::string tmp_path = path_ + kCompactSuffix;
  nvm::NvmRegion new_region = file_backed ? nvm::NvmRegion::create_file(tmp_path, total)
                                          : nvm::NvmRegion::create_anonymous(total);
  Arena new_arena(*pm_, new_region.bytes().subspan(kSuperblockBytes, arena_bytes),
                  /*format=*/true);
  Table new_table(*pm_,
                  new_region.bytes().subspan(kSuperblockBytes + arena_bytes, table_bytes),
                  params, /*format=*/true);

  bool ok = true;
  table().for_each([&](const Key128& fp, u64 offset) {
    if (!ok) return;
    const Record rec = load_record(offset);
    std::string buf;
    buf.resize(kRecordHeaderBytes + rec.key.size());
    const u64 key_len = rec.key.size();
    std::memcpy(buf.data(), &rec.value, sizeof(u64));
    std::memcpy(buf.data() + sizeof(u64), &key_len, sizeof(u64));
    std::memcpy(buf.data() + kRecordHeaderBytes, rec.key.data(), rec.key.size());
    const auto new_offset = new_arena.append(buf.data(), buf.size());
    if (!new_offset || !new_table.insert(fp, *new_offset)) ok = false;
  });
  GH_CHECK_MSG(ok, "compaction target sizing failed");

  {
    auto* sb = reinterpret_cast<Superblock*>(new_region.data());
    pm_->store_u64(&sb->magic, kMagic);
    pm_->store_u64(&sb->version, kVersion);
    pm_->store_u64(&sb->state, kStateDirty);
    pm_->store_u64(&sb->arena_offset, kSuperblockBytes);
    pm_->store_u64(&sb->arena_bytes, arena_bytes);
    pm_->store_u64(&sb->table_offset, kSuperblockBytes + arena_bytes);
    pm_->store_u64(&sb->table_bytes, table_bytes);
    pm_->store_u64(&sb->seed, params.seed);
    pm_->store_u64(&sb->crc, sb->compute_crc());
    pm_->persist(sb, sizeof(Superblock));
  }
  // Entering the publish window: a crash from here until the swap below
  // leaves the op at phase kPublish in the black box.
  op.mark(new_cells);
  if (file_backed) {
    // write-back → rename → fsync(parent): the shared durable publish
    // protocol (src/nvm/fault_fs.hpp). Unlinks the temp file before
    // throwing on failure; a SimulatedCrash propagates untouched.
    nvm::publish_region_file(new_region, tmp_path, path_,
                             "failed to publish compacted map file");
  }
  // Preserve operation statistics across the rebuild (the counters are
  // the map's lifetime story, not the region's).
  new_table.stats() = table().stats();
  table_.emplace(std::move(new_table));
  arena_.emplace(std::move(new_arena));
  if (options_.retain_retired_regions) {
    retired_regions_.push_back(std::move(region_));
  }
  region_ = std::move(new_region);
}

}  // namespace gh
