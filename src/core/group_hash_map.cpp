#include "core/group_hash_map.hpp"

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "core/map_format.hpp"
#include "nvm/crash_point.hpp"
#include "nvm/fault_fs.hpp"
#include "util/assert.hpp"

namespace gh {
namespace {

using map_format::kTableOffset;
constexpr u64 kMapMagic = map_format::kMagic;
constexpr u64 kMapVersion = map_format::kVersion;
constexpr u64 kStateClean = map_format::kStateClean;
constexpr u64 kStateDirty = map_format::kStateDirty;

/// Suffix of the flight-recorder sidecar (obs/flight_recorder.hpp).
constexpr const char* kFlightSuffix = ".flight";

/// Suffix of the resize migration target. It can hold the only copy of
/// already-drained groups, so it is reclaimed only when the superblock's
/// migration cursor says no migration is armed.
constexpr const char* kMigrateSuffix = ".migrate";

/// Cap of the exponential expansion backoff, counted in placement-failure
/// events absorbed between retries.
constexpr u64 kMaxExpandBackoff = 64;

/// Journal the migration cursor to the flight ring every this many
/// groups: the newest surviving record names the resume point without a
/// ring slot per group.
constexpr u64 kMigrateMarkStride = 32;

u64 pow2_at_least(u64 v) {
  u64 p = 1;
  while (p < v) p <<= 1;
  return p;
}

// A table runs scalar and batched mutations through the same window
// code; a map op routes to the *_batch entry points only when it is a
// batch itself, so the tables' batch_ops/batch_keys count map batches.
template <class Table, class Key>
usize upsert_in(Table& t, std::span<const Key> keys, std::span<const u64> values, bool batch) {
  return batch ? t.upsert_batch(keys, values) : usize{t.upsert(keys[0], values[0])};
}

template <class Table, class Key>
void erase_in(Table& t, std::span<const Key> keys, std::span<u8> hits, bool batch) {
  if (batch) {
    t.erase_batch(keys, hits);
    return;
  }
  const bool hit = t.erase(keys[0]);
  if (!hits.empty()) hits[0] = hit ? 1 : 0;
}

template <class Cell, class Payload>
constexpr const char* source_name() {
  if constexpr (!Payload::kInline) return "PersistentStringMap";
  return sizeof(Cell) == 16 ? "GroupHashMap" : "GroupHashMapWide";
}

}  // namespace

template <class Cell, class Payload>
struct BasicGroupHashMap<Cell, Payload>::Superblock : map_format::Superblock {};

template <class Cell, class Payload>
auto BasicGroupHashMap<Cell, Payload>::superblock() -> Superblock* {
  return reinterpret_cast<Superblock*>(region_.data());
}

template <class Cell, class Payload>
auto BasicGroupHashMap<Cell, Payload>::format_table(const char* suffix, u64 total_cells,
                                                    u64 group_size, u64 seed, bool crc,
                                                    usize payload_bytes) -> File {
  const typename Table::Params params{
      .level_cells = total_cells / 2,
      .group_size = static_cast<u32>(std::min<u64>(group_size, total_cells / 2)),
      .seed = seed,
      // A fresh file (ftruncate) or anonymous mapping is already zero.
      .zero_memory = false,
      .count_mode = hash::CountMode::kRecoveryOnly,
      .group_crc = crc,
      .commit_order = hash::CommitOrder::kSameLine};
  const usize table_offset = kTableOffset + payload_bytes;
  const usize table_bytes = Table::required_bytes(params);
  nvm::NvmRegion region =
      path_.empty() ? nvm::NvmRegion::create_anonymous(table_offset + table_bytes)
                    : nvm::NvmRegion::create_file(path_ + suffix, table_offset + table_bytes);
  Table table(*pm_, region.bytes().subspan(table_offset, table_bytes), params,
              /*format=*/true);
  Payload payload(*pm_, region.bytes().subspan(kTableOffset, payload_bytes), /*format=*/true);
  auto* sb = reinterpret_cast<Superblock*>(region.data());
  pm_->store_u64(&sb->magic, kMapMagic);
  pm_->store_u64(&sb->version, kMapVersion);
  pm_->store_u64(&sb->state, kStateDirty);
  pm_->store_u64(&sb->cell_size, sizeof(Cell));
  pm_->store_u64(&sb->table_offset, table_offset);
  pm_->store_u64(&sb->table_bytes, table_bytes);
  pm_->store_u64(&sb->group_size, params.group_size);
  pm_->store_u64(&sb->seed, seed);
  pm_->store_u64(&sb->migration, 0);
  pm_->store_u64(&sb->arena_offset, payload_bytes == 0 ? 0 : kTableOffset);
  pm_->store_u64(&sb->arena_bytes, payload_bytes);
  pm_->store_u64(&sb->crc, map_format::superblock_crc(*sb));
  pm_->persist(sb, sizeof(map_format::Superblock));
  return {std::move(region), std::move(table), std::move(payload)};
}

template <class Cell, class Payload>
auto BasicGroupHashMap<Cell, Payload>::attach_file(nvm::NvmRegion region,
                                                   const std::string& what) -> File {
  const auto* sb = reinterpret_cast<const Superblock*>(region.data());
  if (region.size() < kTableOffset || sb->magic != kMapMagic) {
    throw std::runtime_error(what + " is not a map file");
  }
  if (sb->version != kMapVersion) throw std::runtime_error(what + ": unsupported map version");
  // The same cell width serves GroupHashMapWide and the string map; the
  // arena tells them apart.
  if (sb->cell_size != sizeof(Cell) || Payload::kInline != (sb->arena_bytes == 0)) {
    throw std::runtime_error(what + " was created as a different map type");
  }
  // The geometry must checksum before it is trusted: a bit-rot hit on
  // the superblock fails the open with a typed message instead of
  // mapping the table at forged bounds.
  if (sb->crc != map_format::superblock_crc(*sb)) {
    throw std::runtime_error(what + " superblock is corrupt (checksum mismatch)");
  }
  // Bounds validation stays as belt and braces (a *consistently*
  // re-checksummed forgery still must not index out of range). The
  // table must also start on a line, as the same-line commit needs.
  const u64 size = region.size();
  const auto fits = [size](u64 offset, u64 bytes) {
    return bytes <= size && offset <= size - bytes;
  };
  if (sb->table_offset < kTableOffset + sb->arena_bytes ||
      sb->table_offset % kCachelineSize != 0 || sb->table_bytes == 0 ||
      !fits(sb->table_offset, sb->table_bytes) ||
      (sb->arena_bytes != 0 && sb->arena_offset != kTableOffset)) {
    throw std::runtime_error(what + " superblock is corrupt (table bounds)");
  }
  Table table = Table::attach(*pm_, region.bytes().subspan(sb->table_offset, sb->table_bytes),
                              hash::CountMode::kRecoveryOnly, hash::CommitOrder::kSameLine);
  Payload payload(*pm_, region.bytes().subspan(kTableOffset, sb->arena_bytes),
                  /*format=*/false);
  return {std::move(region), std::move(table), std::move(payload)};
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::init(bool fresh, usize payload_bytes) {
  const MapOptions& options = options_;
  pm_ = std::make_unique<nvm::DirectPM>(
      nvm::PersistConfig{.flush_latency_ns = options.flush_latency_ns});
  recorder_ = std::make_unique<obs::OpRecorder>();
  live_obs_ = std::make_unique<obs::LiveObs>();
  sinks_.latency = options.record_latency ? recorder_.get() : nullptr;
  sinks_.phases = &live_obs_->phases;
  sinks_.gate.set_shift(options.latency_sample_shift);
  if (fresh) {
    File f = format_table("", pow2_at_least(std::max<u64>(options.initial_cells, 16)),
                          pow2_at_least(options.group_size), options.hash_seed,
                          options.checksum_groups, payload_bytes);
    region_ = std::move(f.region);
    table_.emplace(std::move(f.table));
    payload_ = std::move(f.payload);
    init_flight(options, fresh);
    return;
  }
  nvm::NvmRegion region = nvm::NvmRegion::open_file(path_);
  // The flight sidecar comes up BEFORE recovery so the scan of the
  // previous run's rings is available to the recovery report below.
  init_flight(options, fresh);
  File f =
      attach_file(std::move(region), std::string(source_name<Cell, Payload>()) + " " + path_);
  region_ = std::move(f.region);
  table_.emplace(std::move(f.table));
  payload_ = std::move(f.payload);
  // The old table's drained groups were cleared with stores only, so the
  // media may still hold their cells (after a crash, or a clean close,
  // which seals the count but flushes no cell). Clear them again before
  // recovery or verification reads the table.
  const u64 word = superblock()->migration;
  const bool armed =
      map_format::migration_word_valid(word) && map_format::migration_word_active(word);
  if (armed) clear_drained_groups(map_format::migration_word_cursor(word));
  if (superblock()->state == kStateDirty) {
    open_recovery_ = recover_now();
    recovered_on_open_ = true;
  } else {
    // Clean shutdown: the group checksums are authoritative, so verify
    // everything at rest before serving. (After a recovery they were
    // just rebuilt over whatever the media holds — nothing to verify.)
    verify_at_open(table());
  }
  mark_state(kStateDirty);
  // An interrupted resize leaves a durable cursor. The split image (old
  // table + `.migrate` target) must be reattached before any op runs.
  // The cursor word self-checksums (it sits outside superblock_crc so it
  // can be advanced with lone 8-byte stores): a word that neither reads
  // disarmed nor checks out is corruption, not a crash state.
  if (!map_format::migration_word_valid(word)) {
    throw std::runtime_error("GroupHashMap migration cursor is corrupt");
  }
  if (armed) {
    resume_migration();
  } else if (nvm::reclaim_orphan(path_ + kMigrateSuffix)) {
    // No migration armed: a `.migrate` file here lost the race with the
    // cursor arm (crashed start) — never authoritative, reclaim.
    orphans_reclaimed_++;
  }
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::clear_drained_groups(u64 cursor) {
  Table& t = table();
  // A dirty open recounts after this, and a clean one's sealed count
  // never held these cells: the clears must not lower it.
  const u64 count = t.count();
  for (u64 g = 0; g < std::min(cursor, t.num_groups()); ++g) t.clear_group(g);
  t.set_recovered_count(count);
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::verify_at_open(Table& t) {
  if (!options_.verify_on_open || !t.checksums_enabled()) return;
  const hash::ScrubReport report = t.scrub_groups(
      0, t.num_groups(), [this](const hash::LostCell& c) { report_loss(c); },
      options_.scrub_mode);
  // Containment dropped cells from an image still marked clean: re-seal
  // its count, so a crash before the dirty mark leaves exact words.
  if (!report.clean()) t.seal();
  open_scrub_ += report;
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::init_flight(const MapOptions& options, bool fresh) {
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
      // with the sidecar (wrong geometry, corrupt header, truncation)
      // only costs the forensics — it must never fail the map open.
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

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::create_at(const std::string& path,
                                                 const MapOptions& options,
                                                 usize payload_bytes) {
  path_ = path;
  options_ = options;
  // A stale target from a crashed resize of a previous map at this path
  // must not survive into the new map's lifetime. (create truncates the
  // main file, so the old cursor that could have made the `.migrate`
  // target authoritative dies with it.)
  nvm::reclaim_orphan(path + kMigrateSuffix);
  init(/*fresh=*/true, payload_bytes);
  // Make the creation itself durable: the file's directory entry is not
  // guaranteed to survive a power failure until its parent is fsynced.
  if (!nvm::FaultFs::sync_dir(nvm::parent_dir(path))) {
    throw std::runtime_error("failed to fsync parent directory of " + path);
  }
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::open_at(const std::string& path,
                                               const MapOptions& options) {
  path_ = path;
  options_ = options;
  init(/*fresh=*/false);
}

template <class Cell, class Payload>
BasicGroupHashMap<Cell, Payload> BasicGroupHashMap<Cell, Payload>::create(
    const std::string& path, const MapOptions& options) {
  BasicGroupHashMap map;
  map.create_at(path, options, 0);
  return map;
}

template <class Cell, class Payload>
BasicGroupHashMap<Cell, Payload> BasicGroupHashMap<Cell, Payload>::create_in_memory(
    const MapOptions& options) {
  BasicGroupHashMap map;
  map.options_ = options;
  map.init(/*fresh=*/true);
  return map;
}

template <class Cell, class Payload>
BasicGroupHashMap<Cell, Payload> BasicGroupHashMap<Cell, Payload>::open(
    const std::string& path, const MapOptions& options) {
  BasicGroupHashMap map;
  map.open_at(path, options);
  return map;
}

template <class Cell, class Payload>
BasicGroupHashMap<Cell, Payload>::~BasicGroupHashMap() {
  if (region_.valid() && !closed_) close();
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::mark_state(u64 state) {
  Superblock* sb = superblock();
  pm_->atomic_store_u64(&sb->state, state);
  pm_->persist(&sb->state, sizeof(u64));
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::close() {
  if (!region_.valid() || closed_) return;
  // Every table runs CountMode::kRecoveryOnly: its count and checksum
  // words are exact on media only once sealed, and each seal's fence
  // precedes the clean mark that tells open() to trust them. A table
  // that never attached (open() threw after mapping the region) has
  // nothing to seal.
  if (mig_table_) {
    // Clean shutdown mid-migration keeps the split image: both files
    // sealed and marked clean, cursor armed — the next open() resumes
    // the drain.
    mig_table_->seal();
    auto* msb = reinterpret_cast<Superblock*>(mig_region_.data());
    pm_->atomic_store_u64(&msb->state, kStateClean);
    pm_->persist(&msb->state, sizeof(u64));
    mig_region_.sync();
  }
  if (table_) table().seal();
  mark_state(kStateClean);
  region_.sync();
  if (flight_region_.valid() && flight_region_.file_backed()) flight_region_.sync();
  closed_ = true;
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::abandon() {
  if (!region_.valid() || closed_) return;
  // No mark_state: the superblock stays dirty, exactly like a crash.
  table_.reset();
  payload_ = Payload{};
  region_ = nvm::NvmRegion();
  retired_regions_.clear();
  // Same for the migration target: no final sync, no cursor change —
  // the reopening process resumes from whatever the cursor said.
  clear_migration_state();
  migrations_started_ = migrations_completed_ = migrations_resumed_ = 0;
  help_steps_ = bg_steps_ = keys_migrated_ = 0;
  // The flight sidecar is dropped the same way — no final sync, no
  // cleanup. Its mmap'd writes are in the page cache, so the reopening
  // process scans exactly what a crash would have left durable.
  flight_.reset();
  sinks_.flight = nullptr;
  flight_region_ = nvm::NvmRegion();
  closed_ = true;
  // Observability resets coherently with the simulated crash: snapshot()
  // now reports zeros, the same blank slate the recovering open() starts
  // from.
  expansions_ = expand_failures_ = recoveries_ = 0;
  pm_->stats() = nvm::PersistStats{};
  if (flight_pm_) flight_pm_->stats() = nvm::PersistStats{};
  if (recorder_) recorder_->reset();
}

template <class Cell, class Payload>
usize BasicGroupHashMap<Cell, Payload>::place(std::span<const key_type> keys,
                                              std::span<const u64> values, bool batch) {
  if (!mig_table_) return upsert_in(table(), keys, values, batch);
  // Routed by the cursor (DESIGN.md "Resize"). A key of a drained group,
  // or one the target holds, is upserted into the target, a run of them
  // at a time; a key the old table holds is updated there in place; a
  // new key of an undrained group goes to the target only while its
  // group's copy still fits there. The old table never gains a cell, so
  // every group copy fits and no key is in both tables.
  const u64 group_size = table().group_size();
  const auto to_target = [&](const key_type& key) {
    return table().home_index(key) / group_size < mig_cursor_ || mig_table_->contains(key);
  };
  usize done = 0;
  while (done < keys.size()) {
    usize end = done;
    while (end < keys.size() && to_target(keys[end])) ++end;
    if (end > done) {
      const usize n = upsert_in(*mig_table_, keys.subspan(done, end - done),
                                values.subspan(done, end - done), batch);
      done += n;
      if (done < end) return done;
      continue;
    }
    const key_type& key = keys[done];
    if (!table().update(key, values[done]) &&
        !(mig_table_->copy_fits_with(table(), key) && mig_table_->upsert(key, values[done]))) {
      return done;
    }
    ++done;
  }
  return done;
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::make_room(Resize kind, u64 need) {
  const std::string name = source_name<Cell, Payload>();
  if (!options_.auto_expand) throw std::runtime_error(name + " is full");
  if (!try_expand(kind, need)) {
    throw MapDegradedError(name + " insert deferred: expansion failing (" +
                           last_expand_error_ + "); will retry with backoff");
  }
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::upsert_keys(std::span<const key_type> keys,
                                                   std::span<const u64> values, bool batch) {
  // The tables apply a strict prefix and return its length; a short
  // return means a placement failed, so expand and resubmit the rest.
  for (usize done = 0;;) {
    done += place(keys.subspan(done), values.subspan(done), batch);
    if (done == keys.size()) return;
    make_room(Resize::kGrow);
  }
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::erase_keys(std::span<const key_type> keys,
                                                  std::span<u8> hits, bool batch) {
  // Old-table copy first: a crash between the two erases then reads as
  // "the erase did not land" (the target still serves the latest value),
  // never as a resurrected stale old copy. A hit in either table counts.
  erase_in(table(), keys, hits, batch);
  if (!mig_table_) return;
  std::vector<u8> mig_hits(keys.size(), 0);
  erase_in(*mig_table_, keys, std::span<u8>(mig_hits), batch);
  if (!hits.empty()) {
    for (usize i = 0; i < keys.size(); ++i) hits[i] |= mig_hits[i];
  }
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::put(const key_type& key, u64 value) {
  GH_CHECK_MSG(!closed_, "map is closed");
  check_keys({&key, 1});
  obs::OpScope op(sinks_, obs::OpKind::kInsert, trace_key(key));
  upsert_keys({&key, 1}, {&value, 1}, /*batch=*/false);
  // Help-along runs inside the timed window: the stall it causes is part
  // of the latency a caller observes, and phase attribution books it
  // under migrate_help. Its migration records follow the put's finish.
  op.end_flight();
  help_migrate();
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::get_batch(std::span<const key_type> keys,
                                                 std::span<std::optional<u64>> out) {
  check_keys(keys);
  if (keys.empty()) return;
  obs::OpScope op(sinks_, obs::OpKind::kFind, trace_key(keys[0]));
  if (!mig_table_) {
    table().find_batch(keys, out);
    return;
  }
  // New-then-old, batched: probe the migration target first, then
  // re-probe only its misses against the old table.
  mig_table_->find_batch(keys, out);
  table().find_batch_misses(keys, out);
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::put_batch(std::span<const key_type> keys,
                                                 std::span<const u64> values) {
  GH_CHECK_MSG(!closed_, "map is closed");
  GH_CHECK_MSG(keys.size() == values.size(), "put_batch spans must have equal size");
  check_keys(keys);
  if (keys.empty()) return;
  obs::OpScope op(sinks_, obs::OpKind::kInsert, trace_key(keys[0]));
  upsert_keys(keys, values, /*batch=*/true);
  op.end_flight();
  help_migrate();
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::erase_batch(std::span<const key_type> keys,
                                                   std::span<u8> hits) {
  GH_CHECK_MSG(!closed_, "map is closed");
  check_keys(keys);
  if (keys.empty()) return;
  obs::OpScope op(sinks_, obs::OpKind::kErase, trace_key(keys[0]));
  erase_keys(keys, hits, /*batch=*/true);
  op.end_flight();
  help_migrate();
}

template <class Cell, class Payload>
std::optional<u64> BasicGroupHashMap<Cell, Payload>::get(const key_type& key) {
  check_keys({&key, 1});
  obs::OpScope op(sinks_, obs::OpKind::kFind, trace_key(key));
  // New-then-old while a migration runs: a key is in one table, or after
  // a crash or a short copy in both with the target's copy the newest.
  std::optional<u64> r;
  if (mig_table_) r = mig_table_->find(key);
  if (!r) r = table().find(key);
  return r;
}

template <class Cell, class Payload>
bool BasicGroupHashMap<Cell, Payload>::contains(const key_type& key) {
  return get(key).has_value();
}

template <class Cell, class Payload>
u64 BasicGroupHashMap<Cell, Payload>::increment(const key_type& key, u64 delta) {
  GH_CHECK_MSG(!closed_, "map is closed");
  check_keys({&key, 1});
  obs::OpScope op(sinks_, obs::OpKind::kInsert, trace_key(key));
  // Find the cell and bump its value in place wherever it lives (the
  // target first, as reads probe); insert the key when it is new.
  u64 next = delta;
  Table* at = mig_table_ ? &*mig_table_ : &table();
  std::optional<u64> current = at->find(key);
  if (!current && mig_table_) current = (at = &table())->find(key);
  if (current) {
    next = *current + delta;
    GH_CHECK(at->update(key, next));
  } else {
    upsert_keys({&key, 1}, {&next, 1}, /*batch=*/false);
  }
  op.end_flight();
  help_migrate();
  return next;
}

template <class Cell, class Payload>
bool BasicGroupHashMap<Cell, Payload>::erase(const key_type& key) {
  GH_CHECK_MSG(!closed_, "map is closed");
  check_keys({&key, 1});
  obs::OpScope op(sinks_, obs::OpKind::kErase, trace_key(key));
  u8 hit = 0;
  erase_keys({&key, 1}, {&hit, 1}, /*batch=*/false);
  op.end_flight();
  help_migrate();
  return hit != 0;
}

template <class Cell, class Payload>
hash::RecoveryReport BasicGroupHashMap<Cell, Payload>::recover_now() {
  obs::OpScope op(sinks_, obs::OpKind::kRecover, 0, obs::FlightEdge::kAlways);
  auto report = table().recover();
  // Attach the black box's forensics: how many ops the previous run had
  // in flight when it died (what this recovery is repairing after).
  report.in_flight_ops = flight_scan_.in_flight.size();
  recoveries_++;
  return report;
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::report_loss(const hash::LostCell& cell) {
  if (options_.on_lost_cell) options_.on_lost_cell(cell);
}

template <class Cell, class Payload>
hash::ScrubReport BasicGroupHashMap<Cell, Payload>::scrub(u64 max_groups) {
  hash::ScrubReport report;
  // Mid-resize the cursor walks the old table's groups, then the
  // target's: both hold live cells.
  const u64 old_groups = table().num_groups();
  const u64 ngroups = old_groups + (mig_table_ ? mig_table_->num_groups() : 0);
  if (ngroups == 0 || !table().checksums_enabled()) return report;
  obs::OpScope op(sinks_, obs::OpKind::kScrub, 0, obs::FlightEdge::kAlways);
  // Wrap-around cursor: each call resumes where the last one stopped, so
  // a periodic scrub(k) tick eventually covers every group.
  u64 remaining = std::min(max_groups, ngroups);
  while (remaining > 0) {
    if (scrub_cursor_ >= ngroups) scrub_cursor_ = 0;
    const bool in_target = scrub_cursor_ >= old_groups;
    Table& t = in_target ? *mig_table_ : table();
    const u64 first = in_target ? scrub_cursor_ - old_groups : scrub_cursor_;
    const u64 chunk = std::min(remaining, t.num_groups() - first);
    report += t.scrub_groups(
        first, chunk, [this](const hash::LostCell& c) { report_loss(c); }, options_.scrub_mode);
    scrub_cursor_ = (scrub_cursor_ + chunk) % ngroups;
    remaining -= chunk;
  }
  if (report.groups_quarantined > 0) {
    flight_event(obs::FlightEvent::kQuarantine, obs::OpKind::kScrub);
  }
  return report;
}

template <class Cell, class Payload>
bool BasicGroupHashMap<Cell, Payload>::backing_off() {
  if (expand_cooldown_ == 0) return false;
  expand_cooldown_--;  // absorb this failure without retrying
  return true;
}

template <class Cell, class Payload>
template <class Fn>
bool BasicGroupHashMap<Cell, Payload>::with_backoff(obs::OpKind kind, Fn&& step) {
  try {
    step();
  } catch (const nvm::SimulatedCrash&) {
    throw;  // a simulated power failure must freeze the world, not degrade
  } catch (const std::exception& e) {
    expand_failures_++;
    expand_pending_ = true;
    last_expand_error_ = e.what();
    // Journal the degradation: after a crash the black box shows the map
    // was limping, even if no resize was mid-publish.
    flight_event(obs::FlightEvent::kDegraded, kind);
    // The first failure keeps cooldown at zero — a transient fault (one
    // full disk scan, a single ENOSPC blip) costs exactly one retry. Only
    // consecutive failures open a backoff window, and it doubles up to
    // the cap from there.
    expand_cooldown_ = expand_backoff_;
    expand_backoff_ =
        expand_backoff_ == 0 ? 1 : std::min<u64>(expand_backoff_ * 2, kMaxExpandBackoff);
    return false;
  }
  expand_pending_ = false;
  expand_backoff_ = 0;
  expand_cooldown_ = 0;
  return true;
}

template <class Cell, class Payload>
bool BasicGroupHashMap<Cell, Payload>::try_expand(Resize kind, u64 need) {
  if (backing_off()) return false;
  // Room ran out while a resize is migrating: finish it, and start the
  // next one only if the retried placement finds no room either.
  if (mig_table_) {
    obs::PhaseHelpScope help_scope;  // booked as help-along (see help_migrate)
    obs::OpScope op(sinks_, obs::OpKind::kMigrate, 0, obs::FlightEdge::kNone);
    help_steps_ += do_migrate(~0ull);
    return !mig_table_;
  }
  // One resize op spans the start and the inline drain, so its latency
  // row is the stall the triggering op sees, and a crash mid-drain
  // leaves a resize in flight past its publish mark.
  obs::OpScope op(sinks_, kResizeOp, table().capacity(), obs::FlightEdge::kAlways);
  if (!with_backoff(kResizeOp, [&] { start_migration(kind, need); })) return false;
  op.mark(mig_table_->capacity());
  help_steps_ += do_migrate(options_.migrate_groups_per_op);
  return true;
}

template <class Cell, class Payload>
obs::Snapshot BasicGroupHashMap<Cell, Payload>::snapshot() {
  obs::Snapshot s;
  s.source = source_name<Cell, Payload>();
  // Both tables' counters mid-resize; zero once abandon() (a simulated
  // crash) dropped the tables.
  hash::TableStats stats;
  if (table_) {
    s.size = size();
    s.capacity = capacity();
    s.load_factor = load_factor();
    stats = table().stats();
    if (mig_table_) stats += mig_table_->stats();
  }
  s.table = obs::TableOpSnapshot::from(stats);
  s.scrub = obs::ScrubSnapshot::from(stats, open_scrub_);
  if (pm_) s.persist = obs::PersistSnapshot::from(pm_->stats());
  if constexpr (Payload::kInline) {
    s.lifecycle.expansions = expansions_;
    s.lifecycle.expand_failures = expand_failures_;
  } else {
    s.lifecycle.compactions = expansions_;
    s.lifecycle.compact_failures = expand_failures_;
  }
  s.lifecycle.recoveries = recoveries_;
  s.lifecycle.orphans_reclaimed = orphans_reclaimed_;
  s.lifecycle.degraded = expand_pending_;
  s.lifecycle.expand_backoff = expand_backoff_;
  s.lifecycle.expand_cooldown = expand_cooldown_;
  s.migration.active = mig_table_ ? 1 : 0;
  s.migration.cursor = mig_cursor_;
  s.migration.total_groups = mig_total_groups_;
  s.migration.groups_migrated = help_steps_ + bg_steps_;
  s.migration.keys_migrated = keys_migrated_;
  s.migration.started = migrations_started_;
  s.migration.completed = migrations_completed_;
  s.migration.resumed = migrations_resumed_;
  s.migration.help_steps = help_steps_;
  s.migration.bg_steps = bg_steps_;
  if (recorder_) s.latency = obs::OpLatencySnapshot::from(*recorder_);
  if (live_obs_) s.phases = live_obs_->phases.snapshot();
  s.flight.enabled = flight_ != nullptr;
  if (flight_scan_.valid_header) {
    s.flight.records_scanned = flight_scan_.records_valid;
    s.flight.records_torn = flight_scan_.records_torn;
    for (const obs::InFlightOp& op : flight_scan_.in_flight) {
      s.flight.in_flight_on_open.push_back(
          obs::FlightOpBrief{op.kind, op.phase, op.seqno, op.key_hash});
    }
  }
  return s;
}

// --- Resize: the migration state machine -----------------------------------
//
// Phases (each durably ordered by an fsync/rename or an 8-byte committed
// store, and each named in the flight recorder):
//
//   start      create + format `<path>.migrate` (own superblock, dirty)
//   published  target durable (msync + parent-dir fsync), cursor armed
//   cursor=g   groups [0,g) drained: copied into the target (fenced),
//              cleared from the old table with stores only, and retired
//              by the cursor, advanced with one committed 8-byte store
//              per group
//   finalize   cursor == num_groups, old table empty: target synced and
//              renamed over `path`
//   retire     old region unmapped; the target is the map
//
// Crash anywhere: the cursor word in the old superblock names the resume
// point, and open() clears the groups below it again, since their
// unflushed clears may be lost. Duplicates (a group interrupted between
// copy and cursor) are masked by new-table-first reads and skipped by the
// resumed migration's probing copy.

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::set_migration_word(u64 word) {
  Superblock* sb = superblock();
  pm_->atomic_store_u64(&sb->migration, word);
  pm_->persist(&sb->migration, sizeof(u64));
  // The cursor is the resume point after a power failure — push it to the
  // file (one-page msync), not just through the NVM persist model.
  region_.sync_range(offsetof(map_format::Superblock, migration), sizeof(u64));
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::journal_migration(obs::FlightPhase edge,
                                                         obs::MigrationPhase phase) {
  if (!flight_) return;
  const u64 mark = obs::encode_migration_mark(phase, mig_cursor_);
  if (edge == obs::FlightPhase::kStart) {
    mig_flight_token_ = flight_->op_begin_always(obs::OpKind::kMigrate, mark);
  } else if (edge == obs::FlightPhase::kPublish) {
    flight_->op_mark(mig_flight_token_, obs::OpKind::kMigrate, mark);
  } else {
    flight_->op_end(mig_flight_token_, obs::OpKind::kMigrate, mark);
  }
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::clear_migration_state() {
  mig_table_.reset();
  mig_payload_ = Payload{};
  mig_region_ = nvm::NvmRegion();
  mig_cursor_ = 0;
  mig_total_groups_ = 0;
  mig_flight_token_ = 0;
  mig_marked_cursor_ = 0;
  mig_probe_ = false;
  if (live_obs_) live_obs_->set_migration(0, 0, 0);
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::start_migration(Resize kind, u64 need) {
  GH_CHECK(!mig_table_);
  journal_migration(obs::FlightPhase::kStart, obs::MigrationPhase::kStart);
  const u64 cells = kind == Resize::kCompact ? table().capacity() : 2 * table().capacity();
  const u64 live = payload_.live_bytes(table());
  File target = format_table(kMigrateSuffix, cells, table().group_size(), table().seed(),
                             table().checksums_enabled(),
                             Payload::target_bytes(live + need, payload_.capacity()));
  nvm::crash_point("migrate.start.formatted");
  if (!path_.empty()) {
    // The target must be durable (content and directory entry) before the
    // cursor can point at it: an armed cursor whose target is missing is
    // unrecoverable by design, so this ordering is load-bearing.
    target.region.sync();
    if (!nvm::FaultFs::sync_dir(nvm::parent_dir(path_))) {
      throw std::runtime_error("failed to fsync parent directory of " + path_ + kMigrateSuffix);
    }
  }
  mig_region_ = std::move(target.region);
  mig_table_.emplace(std::move(target.table));
  mig_payload_ = std::move(target.payload);
  mig_put_room_ = mig_payload_.remaining() - live;  // the target holds twice `live`
  mig_cursor_ = 0;
  mig_marked_cursor_ = 0;
  mig_total_groups_ = table().num_groups();
  if (live_obs_) live_obs_->set_migration(1, 0, mig_total_groups_);
  set_migration_word(map_format::encode_migration_word(0));
  nvm::crash_point("migrate.cursor.armed");
  journal_migration(obs::FlightPhase::kPublish, obs::MigrationPhase::kPublished);
  migrations_started_++;
  structure_version_++;
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::migrate_one_group(u64 g) {
  // place() keeps the tables disjoint in a live process, so the target
  // is probed only after a resume from an image or a short copy.
  u64 copied = 0;
  if (!mig_table_->copy_group(
          table(), g, mig_probe_, [&](u64& v) { return mig_payload_.adopt(v, payload_); },
          copied)) {
    // place() leaves room for every undrained group, so only a target
    // group scrub() quarantined can refuse a key. The keys copied so far
    // stay in both tables (new-first reads mask them), and the retry must
    // skip them.
    mig_probe_ = true;
    throw std::runtime_error("migration target refused a key of source group " +
                             std::to_string(g));
  }
  nvm::crash_point("migrate.group.copied");
  table().clear_group(g);
  nvm::crash_point("migrate.group.erased");
  keys_migrated_ += copied;
}

template <class Cell, class Payload>
u64 BasicGroupHashMap<Cell, Payload>::do_migrate(u64 max_groups) {
  u64 done = 0;
  while (mig_table_ && done < max_groups && mig_cursor_ < mig_total_groups_) {
    // A short copy degrades the map and backs off like any failing
    // resize step; the split image keeps serving meanwhile.
    if (backing_off() ||
        !with_backoff(obs::OpKind::kMigrate, [&] { migrate_one_group(mig_cursor_); })) {
      break;
    }
    mig_cursor_++;
    done++;
    if (live_obs_) live_obs_->set_migration(1, mig_cursor_, mig_total_groups_);
    set_migration_word(map_format::encode_migration_word(static_cast<u32>(mig_cursor_)));
    nvm::crash_point("migrate.cursor.advanced");
    if (mig_cursor_ - mig_marked_cursor_ >= kMigrateMarkStride ||
        mig_cursor_ == mig_total_groups_) {
      journal_migration(obs::FlightPhase::kPublish, obs::MigrationPhase::kCursor);
      mig_marked_cursor_ = mig_cursor_;
    }
  }
  // A failed finalize leaves the drained split image serving (only the
  // rename publish is owed) and retries with capped backoff.
  if (mig_table_ && mig_cursor_ >= mig_total_groups_ && !backing_off()) {
    with_backoff(obs::OpKind::kMigrate, [&] { finalize_migration(); });
  }
  return done;
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::help_migrate() {
  if (!mig_table_ || options_.migrate_groups_per_op == 0) return;
  // When the enclosing data op is phase-collecting, the whole help
  // bracket books under migrate_help (persist/fence inside it are
  // suppressed — their time is part of the help stall, not of the op's
  // own persistence). When it is not, the kMigrate scope below may claim
  // collection itself and the migration's persist/fence phases attribute
  // to the kMigrate row.
  obs::PhaseHelpScope help_scope;
  obs::OpScope op(sinks_, obs::OpKind::kMigrate, 0, obs::FlightEdge::kNone);
  help_steps_ += do_migrate(options_.migrate_groups_per_op);
}

template <class Cell, class Payload>
u64 BasicGroupHashMap<Cell, Payload>::migrate_step(u64 max_groups) {
  GH_CHECK_MSG(!closed_, "map is closed");
  if (!mig_table_ || max_groups == 0) return 0;
  obs::OpScope op(sinks_, obs::OpKind::kMigrate, 0, obs::FlightEdge::kNone);
  const u64 n = do_migrate(max_groups);
  bg_steps_ += n;
  return n;
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::finalize_migration() {
  GH_CHECK(mig_table_);
  GH_CHECK_MSG(table().count() == 0, "finalize with undrained old table");
  journal_migration(obs::FlightPhase::kPublish, obs::MigrationPhase::kFinalize);
  nvm::crash_point("migrate.finalize");
  if (!path_.empty()) {
    // The durable publish: msync, rename, dir fsync. The `.migrate`
    // target holds the only copy of the drained groups, so a failure
    // unlinks nothing: the split image stays intact and the caller
    // retries.
    mig_region_.sync();
    nvm::crash_point("migrate.finalize.synced");
    if (!nvm::FaultFs::rename(path_ + kMigrateSuffix, path_)) {
      throw std::runtime_error("failed to publish migrated map file " + path_);
    }
    nvm::crash_point("migrate.finalize.renamed");
    if (!nvm::FaultFs::sync_dir(nvm::parent_dir(path_))) {
      throw std::runtime_error("failed to fsync parent directory of " + path_);
    }
  }
  // Both tables' op counters carry forward, so the cumulative counters
  // never go backwards; the resize's own copies count as inserts.
  mig_table_->stats() += table().stats();
  table_.emplace(std::move(*mig_table_));
  payload_ = std::move(mig_payload_);
  if (options_.retain_retired_regions) {
    retired_regions_.push_back(std::move(region_));
  }
  region_ = std::move(mig_region_);
  journal_migration(obs::FlightPhase::kFinish, obs::MigrationPhase::kRetire);
  clear_migration_state();
  nvm::crash_point("migrate.retired");
  migrations_completed_++;
  expansions_++;
  structure_version_++;
  scrub_cursor_ = 0;  // group numbering changed with the geometry
}

template <class Cell, class Payload>
void BasicGroupHashMap<Cell, Payload>::resume_migration() {
  const u64 cursor = map_format::migration_word_cursor(superblock()->migration);
  const std::string mig_path = path_ + kMigrateSuffix;
  std::error_code ec;
  if (!std::filesystem::exists(mig_path, ec)) {
    // The cursor is only armed after the target's directory entry is
    // fsynced, so a missing target means tampering or filesystem loss —
    // groups below the cursor have no other copy. Refuse, don't guess.
    throw std::runtime_error("GroupHashMap migration target missing: " + mig_path);
  }
  File target = attach_file(nvm::NvmRegion::open_file(mig_path),
                            std::string(source_name<Cell, Payload>()) + " migration target " +
                                mig_path);
  mig_region_ = std::move(target.region);
  mig_table_.emplace(std::move(target.table));
  mig_payload_ = std::move(target.payload);
  // New records may use what the old table's records leave free.
  const u64 live = payload_.live_bytes(table());
  mig_put_room_ = mig_payload_.remaining() - std::min(mig_payload_.remaining(), live);
  auto* msb = reinterpret_cast<Superblock*>(mig_region_.data());
  if (msb->state == kStateDirty) {
    // The target died mid-write just like the main table would have;
    // Algorithm-4 it back to consistency before reads trust it.
    mig_table_->recover();
    recoveries_++;
  } else {
    // Closed cleanly: its checksums are as authoritative as the old
    // table's, and its drained groups have no other copy to fall back on.
    verify_at_open(*mig_table_);
    pm_->atomic_store_u64(&msb->state, kStateDirty);
    pm_->persist(&msb->state, sizeof(u64));
  }
  mig_total_groups_ = table().num_groups();
  mig_cursor_ = std::min(cursor, mig_total_groups_);
  mig_marked_cursor_ = mig_cursor_;
  mig_probe_ = true;
  if (live_obs_) live_obs_->set_migration(1, mig_cursor_, mig_total_groups_);
  migrations_resumed_++;
  structure_version_++;
  journal_migration(obs::FlightPhase::kStart, obs::MigrationPhase::kResume);
  // A crash can land between the final cursor advance and the rename:
  // the drain is already complete and only the finalize is owed.
  if (mig_cursor_ >= mig_total_groups_) finalize_migration();
}

template <class Cell, class Payload>
bool BasicGroupHashMap<Cell, Payload>::debug_verify_tags() const {
  if (table_ && !table().verify_tags()) return false;
  return !mig_table_ || mig_table_->verify_tags();
}

template <class Cell, class Payload>
bool BasicGroupHashMap<Cell, Payload>::debug_verify_group_checksums() const {
  const auto verify = [](const Table& t) {
    if (!t.checksums_enabled()) return true;
    for (u64 g = 0; g < t.num_groups(); ++g) {
      for (u32 level = 0; level < 2; ++level) {
        if (!t.group_quarantined(level, g) && !t.verify_group_checksum(level, g)) {
          return false;
        }
      }
    }
    return true;
  };
  if (table_ && !verify(table())) return false;
  return !mig_table_ || verify(*mig_table_);
}

template class BasicGroupHashMap<hash::Cell16>;
template class BasicGroupHashMap<hash::Cell32>;
template class BasicGroupHashMap<hash::Cell32, ArenaPayload>;

}  // namespace gh
