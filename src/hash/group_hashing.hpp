// Group hashing — the paper's contribution (§3).
//
// Layout: the cells are decoupled into two equal-sized levels. Level 1 is
// addressable by the hash function; level 2 is non-addressable and
// resolves collisions. Both levels are divided into groups of
// `group_size` contiguous cells, and the level-2 group with the same
// group number is *shared* by all cells of the matching level-1 group:
//
//   level 1 (tab1):  [ group 0 | group 1 | group 2 | ... ]
//   level 2 (tab2):  [ group 0 | group 1 | group 2 | ... ]
//
// An item hashing to level-1 index k that finds tab1[k] occupied probes
// tab2[j .. j+group_size) where j = k - k % group_size — a contiguous
// range, so a single memory access prefetches the following cells of the
// same cacheline (the CPU-cache-efficiency half of the design).
//
// Consistency (§3.3): no logging and no copy-on-write. Inserts and
// deletes are committed by the cell's 8-byte atomic commit word (see
// cells.hpp); the persistent `count` is atomically updated afterwards,
// and recovery (§3.5, Algorithm 4) rescans the table to scrub torn
// payloads and recompute `count`. The protocol has one implementation,
// the fence-coalesced mutation window ("Mutation windows" below): a
// scalar insert or erase is a window of one, a batch shares each
// window's fences across up to kBatchWindow keys. Under
// CountMode::kRecoveryOnly (what the durable maps run) the count and the
// group checksum words are recovery-derived: windows store them without
// a flush or fence, so a scalar op costs the paper's two fences, and
// seal() makes them exact on media before a clean shutdown. The durable
// maps also run CommitOrder::kSameLine, which writes a cell's payload and
// commit word back to back, flushes each line the window dirtied once,
// and fences once per window, relying on x86's in-line persist order
// (DESIGN.md).
//
// Media integrity (optional, Params::group_crc): the commit-word protocol
// defends against *crashes*, not against the media itself lying — bit rot
// flips stored bits silently, and poisoned lines fault on read. When
// enabled, each (level, group) keeps a CRC32C-derived checksum in an
// array appended after tab2:
//
//   [Header][tab1][tab2][crc level 1][crc level 2]   (one u64 per group)
//
// The group checksum is the XOR of per-cell digests, where a cell's
// digest is 0 for an all-zero cell and otherwise CRC32C seeded with the
// cell's global index (so two cells swapping contents is detected).
// XOR-of-digests makes maintenance O(cell) per mutation: XOR out the old
// digest, XOR in the new one, 8-byte atomic store of the checksum word.
// The checksum update is NOT failure-atomic with the cell commit — after
// a crash the checksums of in-flight groups (every group, under
// kRecoveryOnly) are legitimately stale, which is why recover()/
// recover_slice() REBUILD them while clean-state opens and scrub passes
// VERIFY them. The words in memory are always exact, so a live scrub
// verifies against them in either mode.
//
// scrub_groups() is the incremental verification pass: it re-derives a
// window of group checksums, quarantines groups that fail (or whose reads
// hit poisoned media), drops-and-reports or salvages-and-reports every
// occupied cell of a failed group, and re-seals the group's checksum.
// Quarantined groups take no new inserts — the table degrades toward its
// expansion trigger instead of re-trusting bad media.
// Fingerprint tags (hash/tag_probe.hpp): every cell additionally has a
// 1-byte DRAM-only tag — 0 when the cell is unoccupied, tag_of_hash(h)
// of its key's hash otherwise. Probe loops scan a group's 256 tag bytes
// with SIMD equality compares and only dereference tag-matching cells;
// the array is rebuilt from the cells on attach/recovery, so the PM
// image and the commit-word crash discipline are completely untouched.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "hash/cells.hpp"
#include "hash/hash_functions.hpp"
#include "hash/staged_probe.hpp"
#include "hash/table_stats.hpp"
#include "hash/tag_probe.hpp"
#include "hash/wal.hpp"
#include "nvm/media_error.hpp"
#include "nvm/persist.hpp"
#include "util/assert.hpp"
#include "util/counters.hpp"
#include "util/crc32c.hpp"
#include "util/types.hpp"

namespace gh::hash {

/// How the global `count` field and the group checksum words are
/// maintained.
enum class CountMode {
  /// The paper's protocol (Algorithms 1/3): atomically update and persist
  /// `count` after every insert/delete, and each touched checksum word —
  /// one extra flush+fence each per mutation window (per op for scalar
  /// ops).
  kEager,
  /// Recovery-derived: keep `count` volatile and store the checksum words
  /// without flushing them, and let recovery recompute both (which
  /// Algorithm 4 does anyway). Saves both flushes and fences; the on-NVM
  /// words are only guaranteed exact after seal() (clean shutdown), the
  /// one call that persists them in this mode — recover() rebuilds them
  /// in memory.
  /// The durable maps run this mode. Measured by
  /// bench/ablation_count_persistence.
  kRecoveryOnly,
};

/// How a mutation window orders a cell's payload against its commit word.
enum class CommitOrder {
  /// The paper's protocol, which assumes only 8-byte failure atomicity:
  /// payload → flush → fence → commit word → flush → fence (an erase runs
  /// it in reverse), two fences per window.
  kFenced,
  /// Payload and commit word (or commit clear and wipe) stored back to
  /// back in the cell's one cacheline. The window flushes each line it
  /// dirtied once, however many of its cells the line holds, then fences
  /// once. Sound only where stores to one line persist in program order
  /// (x86 under ADR or eADR); a crash then leaves each cell with nothing,
  /// the payload alone (uncommitted garbage that recovery scrubs), or
  /// both. Requires kRecoveryOnly and no undo log.
  kSameLine,
};

/// What scrub_groups() does with the occupied cells of a group whose
/// checksum fails verification. Either way every affected cell is
/// REPORTED via the callback — corruption is never handled silently.
enum class ScrubMode {
  /// Drop every occupied cell of the failed group. A flipped value bit is
  /// per-cell undetectable (the group checksum localises corruption to
  /// the group, not the cell), so retaining any cell risks serving a
  /// wrong value; detected loss is strictly better than a silent lie.
  kDropGroup,
  /// Retain cells whose key still hashes to this location (the flipped
  /// bits are then overwhelmingly likely in some *other* cell of the
  /// group); drop the rest. Retained cells are reported with
  /// salvaged=true so the application knows which keys to re-verify
  /// upstream.
  kSalvage,
};

template <class Cell, class PM>
class GroupHashTable {
 public:
  using key_type = typename Cell::key_type;

  struct Params {
    u64 level_cells = 1024;  ///< cells per level (power of two)
    u32 group_size = 256;    ///< cells per group (divides level_cells)
    u64 seed = kDefaultSeed1;
    /// Zero cell memory on format. Fresh anonymous mappings are already
    /// zero, so benches skip this; formatting a reused file needs it.
    bool zero_memory = false;
    CountMode count_mode = CountMode::kEager;
    /// Maintain per-group checksums (see file comment). Adds one 8-byte
    /// atomic store per touched group per mutation window (plus its flush
    /// and fence under kEager) and 16 bytes per group of space.
    bool group_crc = false;
    CommitOrder commit_order = CommitOrder::kFenced;
  };

  static constexpr u64 kMagic = 0x4748544742303031ull;  // "GHTGB001"
  static constexpr u64 kFlagGroupCrc = 1ull << 0;
  // kSameLine's crash argument needs every cell inside one cacheline.
  static_assert(kCachelineSize % sizeof(Cell) == 0, "a cell must not straddle two lines");

  struct Header {
    u64 magic;
    u64 level_cells;
    u64 group_size;
    u64 count;  ///< occupied cells; 8-byte atomically maintained
    u64 seed;
    u64 cell_size;
    u64 flags;  ///< kFlagGroupCrc — feature bits baked into the image
    u64 reserved;
  };
  static_assert(sizeof(Header) == 64);

  static usize required_bytes(const Params& p) {
    usize bytes = sizeof(Header) + 2 * p.level_cells * sizeof(Cell);
    if (p.group_crc) bytes += 2 * (p.level_cells / p.group_size) * sizeof(u64);
    return bytes;
  }

  /// Create (format=true) or attach to (format=false) a table in `mem`.
  GroupHashTable(PM& pm, std::span<std::byte> mem, const Params& p, bool format)
      : pm_(&pm), hash_(p.seed) {
    GH_CHECK_MSG(is_pow2(p.level_cells), "level_cells must be a power of two");
    GH_CHECK_MSG(p.group_size > 0 && p.level_cells % p.group_size == 0,
                 "group_size must divide level_cells");
    GH_CHECK(mem.size() >= required_bytes(p));
    header_ = reinterpret_cast<Header*>(mem.data());
    tab1_ = reinterpret_cast<Cell*>(mem.data() + sizeof(Header));
    tab2_ = tab1_ + p.level_cells;
    bool crc_on = p.group_crc;
    if (format) {
      if (p.zero_memory) {
        pm.fill(tab1_, 0, 2 * p.level_cells * sizeof(Cell));
        pm.persist(tab1_, 2 * p.level_cells * sizeof(Cell));
      }
      pm.store_u64(&header_->magic, kMagic);
      pm.store_u64(&header_->level_cells, p.level_cells);
      pm.store_u64(&header_->group_size, p.group_size);
      pm.store_u64(&header_->count, 0);
      pm.store_u64(&header_->seed, p.seed);
      pm.store_u64(&header_->cell_size, sizeof(Cell));
      pm.store_u64(&header_->flags, crc_on ? kFlagGroupCrc : 0);
      pm.store_u64(&header_->reserved, 0);
      pm.persist(header_, sizeof(Header));
    } else {
      GH_CHECK_MSG(header_->magic == kMagic, "not a group-hashing table");
      GH_CHECK(header_->cell_size == sizeof(Cell));
      GH_CHECK(header_->level_cells == p.level_cells);
      hash_ = SeededHash(header_->seed);
      // The image, not the caller, decides whether checksums exist.
      crc_on = (header_->flags & kFlagGroupCrc) != 0;
    }
    level_cells_ = header_->level_cells;
    mask_ = level_cells_ - 1;
    group_size_ = static_cast<u32>(header_->group_size);
    count_mode_ = p.count_mode;
    commit_order_ = p.commit_order;
    if (same_line()) {
      GH_CHECK_MSG(count_mode_ == CountMode::kRecoveryOnly,
                   "CommitOrder::kSameLine requires CountMode::kRecoveryOnly");
      GH_CHECK_MSG(reinterpret_cast<std::uintptr_t>(tab1_) % kCachelineSize == 0,
                   "CommitOrder::kSameLine requires line-aligned cells");
    }
    volatile_count_ = header_->count;
    // DRAM fingerprint tags, one byte per cell of both levels. Held via
    // shared_ptr: retired optimistic read views (core/optimistic_read.hpp)
    // keep the old array alive across an expansion the same way retired
    // regions are retained.
    tags_ = std::shared_ptr<u8[]>(new u8[2 * level_cells_]());
    tags1_ = tags_.get();
    tags2_ = tags1_ + level_cells_;
    if (!format) rebuild_tags(0, level_cells_);
    // Sized once here, so a resize's copy_group allocates nothing.
    region_lines_ = group_size_ * sizeof(Cell) / kCachelineSize + 2;
    copy_lines_.assign((4 * region_lines_ + 63) / 64, 0);
    if (crc_on) {
      const usize crc_bytes = 2 * num_groups() * sizeof(u64);
      GH_CHECK(mem.size() >= sizeof(Header) + 2 * level_cells_ * sizeof(Cell) + crc_bytes);
      crc_ = reinterpret_cast<u64*>(tab2_ + level_cells_);
      if (format) {
        // An all-zero cell's digest is 0, so a freshly formatted group's
        // checksum is simply 0 — zero the array and the invariant holds.
        pm.fill(crc_, 0, crc_bytes);
        pm.persist(crc_, crc_bytes);
      }
      quarantined_.assign(2 * num_groups(), 0);
    }
  }

  /// Attach to an existing table, taking parameters from its header. The
  /// count mode and commit order are not part of the image: they are how
  /// this process maintains it from now on.
  static GroupHashTable attach(PM& pm, std::span<std::byte> mem,
                               CountMode count_mode = CountMode::kEager,
                               CommitOrder commit_order = CommitOrder::kFenced) {
    GH_CHECK(mem.size() >= sizeof(Header));
    const auto* h = reinterpret_cast<const Header*>(mem.data());
    GH_CHECK_MSG(h->magic == kMagic, "not a group-hashing table");
    Params p{.level_cells = h->level_cells,
             .group_size = static_cast<u32>(h->group_size),
             .seed = h->seed,
             .count_mode = count_mode,
             .group_crc = (h->flags & kFlagGroupCrc) != 0,
             .commit_order = commit_order};
    return GroupHashTable(pm, mem, p, /*format=*/false);
  }

  /// Optional logging wrapper used only by the ablation bench (the paper's
  /// point is that group hashing does NOT need it). While attached, every
  /// mutation window holds one op inside one undo-log transaction.
  void attach_wal(UndoLog<PM>* wal) {
    GH_CHECK_MSG(wal == nullptr || !same_line(), "CommitOrder::kSameLine takes no undo log");
    wal_ = wal;
  }

  /// Algorithm 1, as a window of one (see "Mutation windows" below).
  /// Precondition: `key` is not already present (the paper's insert does
  /// not check; use upsert for checked inserts). Returns false when the
  /// level-1 cell and its whole matched level-2 group are full — the
  /// signal to expand the table. Quarantined groups accept no new cells,
  /// so corruption shows up as earlier expansion pressure rather than
  /// data written to distrusted media.
  bool insert(key_type key, u64 value) {
    return put_batch_impl<false>({&key, 1}, {&value, 1}) == 1;
  }

  /// Update-or-insert one key, as a window of one. Returns false when the
  /// key is new and its level-1 cell and level-2 group are full.
  bool upsert(key_type key, u64 value) {
    return put_batch_impl<true>({&key, 1}, {&value, 1}) == 1;
  }

  /// Algorithm 2. (We additionally require the bitmap to be set on
  /// level-2 matches — the paper's pseudo-code compares only the key,
  /// which would mis-match a key of all-zero bits.)
  std::optional<u64> find(key_type key) {
    const u64 h = hash_(key);
    prefetch_probe(h);
    return find_at(key, h);
  }

  /// Batched lookup: the staged kernel (hash/staged_probe.hpp) in
  /// windows of kStagedWindow keys. Every key's level-1 tag byte and
  /// cell are prefetched first; only the keys level 1 does not answer
  /// then prefetch their level-2 tag lines and, after a tag sweep, their
  /// candidate cells. Writes out[i] for keys[i]. Every counter but
  /// prefetches_issued (2 per key, plus the tag lines and candidate cells
  /// of each key level 1 does not answer) equals a loop of find()'s; the
  /// prefetch stages are independent of SIMD dispatch.
  void find_batch(std::span<const key_type> keys, std::span<std::optional<u64>> out) {
    GH_CHECK(out.size() >= keys.size());
    count_batch(keys.size());
    LockedProbe probe{*this};
    staged_probe(probe, keys, out, /*misses_only=*/false);
  }

  /// find_batch over only the keys out[] does not answer yet, counted as
  /// a batch of those keys: how a migration's old table is probed behind
  /// its target.
  void find_batch_misses(std::span<const key_type> keys, std::span<std::optional<u64>> out) {
    GH_CHECK(out.size() >= keys.size());
    const auto misses = static_cast<usize>(
        std::count_if(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(keys.size()),
                      [](const std::optional<u64>& o) { return !o.has_value(); }));
    if (misses == 0) return;
    count_batch(misses);
    LockedProbe probe{*this};
    staged_probe(probe, keys, out, /*misses_only=*/true);
  }

  /// Whether the table holds `key`, counted as a probe but not a query.
  [[nodiscard]] bool contains(key_type key) { return find_cell(key) != nullptr; }

  /// In-place value update. An 8-byte value overwrite is itself failure
  /// atomic, so no further protocol is needed. The cell is digested
  /// before its line is flushed, while the probe left it in cache.
  bool update(key_type key, u64 value) {
    Cell* c = find_cell(key);
    if (c == nullptr) return false;
    const u32 delta = crc_ ? cell_digest(c) ^ committed_digest(c, c->key(), value) : 0;
    pm_->atomic_store_u64(&c->value, value);
    pm_->persist(&c->value, sizeof(u64));
    if (crc_) apply_digest_delta(c, delta);
    return true;
  }

  /// Algorithm 3, as a window of one.
  bool erase(key_type key) { return erase_impl({&key, 1}, {}) == 1; }

  // --- mutation windows (fence-coalesced) ---------------------------------
  //
  // Every insert and erase, scalar or batched, runs one windowed protocol:
  // a window of up to kBatchWindow keys shares its persist fences while
  // each cell keeps its own 8-byte commit (see cells.hpp: the two-phase
  // stage→fence→commit→fence / clear→fence→wipe→fence splits). Under
  // kSameLine every flush the window's cells ask for only marks its line
  // in a DirtyLines view, and each marked line is flushed once: as soon
  // as no later key of the window can touch it (WindowPlan), and at the
  // latest right before the window's one fence. The window tail stores
  // the coalesced checksum deltas, then the count.
  // Under kEager both are persisted (one fence for the checksums, one for
  // the count) and after a crash are stale by at most a window; under
  // kRecoveryOnly neither is flushed. Recovery rebuilds both either way.
  // A scalar op is a window of one: under kEager it issues exactly the
  // fences and flushes of the paper's per-op protocol, under
  // kRecoveryOnly only the cell's own (insert and erase 2/2, or 1/1 under
  // kSameLine). An attached undo log forces windows of one and logs each
  // target cell and the count inside its transaction. Keys are applied
  // strictly in order, so on a placement failure the return value is an
  // exact prefix length — the map layer expands and resubmits the
  // remainder. Only the *_batch entry points count toward
  // batch_ops/batch_keys.

  static constexpr usize kBatchWindow = 32;

  /// Update-or-insert each (keys[i], values[i]). Returns the number of
  /// leading keys fully applied; < keys.size() means key [return] found
  /// both its level-1 cell and level-2 group full (or quarantined).
  usize upsert_batch(std::span<const key_type> keys, std::span<const u64> values) {
    count_batch(keys.size());
    return put_batch_impl<true>(keys, values);
  }

  /// Pure batched insert (precondition: keys not already present —
  /// duplicates *within* the batch are allowed and coalesce to the last
  /// value, matching sequential insert-or-update semantics at the map
  /// layer). Skips the existing-key lookup upsert_batch does.
  usize insert_batch(std::span<const key_type> keys, std::span<const u64> values) {
    count_batch(keys.size());
    return put_batch_impl<false>(keys, values);
  }

  /// Batched erase. hits[i] (when a buffer is supplied) is 1 if keys[i]
  /// was present. Returns the number of keys erased. Duplicate keys in
  /// one batch behave sequentially: the first occurrence erases, the
  /// rest miss.
  usize erase_batch(std::span<const key_type> keys, std::span<u8> hits) {
    count_batch(keys.size());
    return erase_impl(keys, hits);
  }

  /// Empty group `g` on both levels — how a resize retires a source group
  /// once its keys are copied out. Under kFenced it keeps erase_batch's
  /// crash order (every commit word cleared → fence → payloads wiped →
  /// fence), so no crash image holds a committed cell with a wiped
  /// payload, and flushes each touched cacheline once per phase (through
  /// DirtyLines) instead of once per cell. Under kSameLine one
  /// address-ordered pass clears each cell's commit word before wiping it
  /// and flushes nothing: the caller's durable cursor retires the group,
  /// so after a crash (or a clean close) the map clears every group below
  /// the cursor again before anything reads the table. The group ends
  /// all-zero, which digests to 0, so both checksum words are reset
  /// rather than delta-updated (flushed and fenced under kEager only),
  /// and the count drops in one bump. Returns the number of occupied
  /// cells cleared.
  u64 clear_group(u64 g) {
    GH_DCHECK(g < num_groups());
    Cell* const levels[2] = {tab1_ + g * group_size_, tab2_ + g * group_size_};
    u64 cleared = 0;
    if (same_line()) {
      StoresOnly stores{*pm_};
      // Unoccupied cells are normally all-zero already; wiping every dirty
      // one (not only the occupied) is what makes the 0 checksum exact.
      for (Cell* base : levels) {
        for (u32 i = 0; i < group_size_; ++i) {
          if (!base[i].payload_dirty()) continue;
          if (base[i].occupied()) {
            tag_store(tag_slot(base + i), 0);
            cleared++;
          }
          base[i].retract_same_line(stores);
        }
      }
    } else {
      DirtyLines lines{*pm_};
      for (Cell* base : levels) {
        for (u32 i = 0; i < group_size_; ++i) {
          if (!base[i].occupied()) continue;
          base[i].retract_commit(lines);
          tag_store(tag_slot(base + i), 0);
          cleared++;
        }
      }
      lines.drain();
      pm_->fence();  // clears durable before any wipe store issues
      // As above: wipe every dirty cell.
      for (Cell* base : levels) {
        for (u32 i = 0; i < group_size_; ++i) {
          if (base[i].payload_dirty()) base[i].retract_wipe(lines);
        }
      }
      lines.drain();
      pm_->fence();
    }
    if (crc_) {
      for (u32 level = 0; level < 2; ++level) {
        pm_->atomic_store_u64(crc_slot(level, g), 0);
        if (eager()) pm_->flush(crc_slot(level, g), sizeof(u64));
      }
      if (eager()) pm_->fence();
    }
    if (cleared > 0) bump_count(-static_cast<i64>(cleared));
    return cleared;
  }

  /// Copy every occupied cell of `src`'s group `g` into this table: how a
  /// resize moves one source group, for growth (this table has twice
  /// src's level cells) and compaction (the same number) alike. One pass
  /// over the group, level 1 first: each key is hashed once and written
  /// to its level-1 home here if that is free, else to the next free
  /// level-2 cell of its target group, found from a per-group fill cursor
  /// over the tag bytes (nothing is freed during the copy, so the cursor
  /// only moves forward). Level 1 goes first, so a key that owned its
  /// level-1 slot in `src` owns its home here too: every other key with
  /// that home shares its old slot and sits in src's level 2.
  ///
  /// Each cell is published same-line and digested while it is in cache.
  /// Once the group is written, each target line it touched is flushed
  /// once, in address order, and one fence makes the copy durable before
  /// the caller clears the source group. `probe` skips keys this table
  /// already holds (their values are as new or newer); only a migration
  /// resumed from an image, or one whose copy came up short, can meet
  /// one (DESIGN.md "Resize"). `adopt(value)`
  /// moves a key's payload into this table's file before its cell is
  /// written; false stops the copy. Returns false when a key found no
  /// free cell (its level-1 home and level-2 group full or quarantined)
  /// or adopt failed: the cells copied so far stay, durable, as
  /// duplicates of cells the source still holds. `copied` counts the
  /// cells written either way. Requires kSameLine and src's geometry
  /// and seed.
  template <class Adopt>
  bool copy_group(const GroupHashTable& src, u64 g, bool probe, Adopt&& adopt, u64& copied) {
    GH_CHECK_MSG(same_line(), "copy_group requires CommitOrder::kSameLine");
    GH_CHECK(src.group_size_ == group_size_ && src.hash_.seed() == hash_.seed());
    GH_CHECK(level_cells_ == src.level_cells_ || level_cells_ == 2 * src.level_cells_);
    GH_DCHECK(g < src.num_groups());
    // Target group f of this source group is g + f * src.num_groups();
    // region r = level * 2 + f, which is also address order.
    const u64 src_groups = src.num_groups();
    const u64 fan = level_cells_ / src.level_cells_;
    std::array<Cell*, 4> region{};
    for (u64 f = 0; f < fan; ++f) {
      region[f] = tab1_ + (g + f * src_groups) * group_size_;
      region[2 + f] = tab2_ + (g + f * src_groups) * group_size_;
    }
    std::array<u32, 2> fill{};   // next level-2 cell to try, per target group
    std::array<u64, 4> delta{};  // checksum delta, per region
    StoresOnly stores{*pm_};
    copied = 0;
    bool ok = true;
    for (u32 level = 0; level < 2 && ok; ++level) {
      const Cell* from = (level == 0 ? src.tab1_ : src.tab2_) + g * group_size_;
      const u8* from_tags = (level == 0 ? src.tags1_ : src.tags2_) + g * group_size_;
      for (u32 i = 0; i < group_size_; ++i) {
        if (from_tags[i] == 0) continue;  // empty: its line is never read
        GH_DCHECK(from[i].occupied());
        const key_type key = from[i].key();
        u64 value = from[i].value;
        const u64 h = hash_(key);
        if (probe && find_cell_at(key, h) != nullptr) continue;
        const u64 k = h & mask_;
        const u64 tg = k / group_size_;
        const usize f = tg / src_groups;
        // Every key hashes to one of g's target groups: the maps reject
        // Cell16 keys above kMaxKey, the only ones stored as another key.
        GH_CHECK_MSG((tg & (src_groups - 1)) == g, "copied key hashes outside its group");
        Cell* dst = nullptr;
        usize r = f;
        if (tags1_[k] == 0 && !is_quarantined(0, tg)) {
          dst = &tab1_[k];
        } else if (!is_quarantined(1, tg)) {
          r = 2 + f;
          const u64 j = tg * group_size_;
          u32& next = fill[f];
          for_each_tag_match(tags2_ + j + next, group_size_ - next, /*tag=*/0, [&](u32 idx) {
            next += idx;
            dst = &tab2_[j + next++];
            return true;
          });
        }
        if (dst == nullptr) stats_.insert_failures++;
        if (dst == nullptr || !adopt(value)) {
          ok = false;
          break;
        }
        const u32 old_digest = crc_ ? cell_digest(dst) : 0;
        dst->publish_same_line(stores, key, value);
        tag_store(tag_slot(dst), tag_of_hash(h));
        if (crc_) delta[r] ^= old_digest ^ cell_digest(dst);
        mark_copy_line(r, region[r], dst);
        stats_.inserts++;
        copied++;
      }
    }
    if (copied > 0) {
      flush_copy_lines(region);
      pm_->fence();  // the copy durable before any store of the source clear
    }
    if (crc_) {
      for (u32 level = 0; level < 2; ++level) {
        for (u64 f = 0; f < fan; ++f) {
          const u64 d = delta[level * 2 + f];
          if (d == 0) continue;
          u64* slot = crc_slot(level, g + f * src_groups);
          pm_->atomic_store_u64(slot, *slot ^ d);
          if (eager()) pm_->persist(slot, sizeof(u64));
        }
      }
    }
    if (copied > 0) bump_count(static_cast<i64>(copied));
    return ok;
  }

  /// Whether copy_group(src, g) still fits once `key` is inserted here,
  /// ahead of the copy of its source group g: how a migration target
  /// admits a new key of an undrained group. `key` must be absent here.
  /// The check replays the copy for the key's target group alone (the
  /// other one is unaffected): the key, then each source key of g bound
  /// for this group in copy order, takes its level-1 home if no cell
  /// holds it yet, else a level-2 cell, and the level-2 cells taken must
  /// not outnumber the group. A replay over keys this table already
  /// holds counts them twice, so it can only refuse too much. Quarantine
  /// is left to the insert and the copy, which both avoid those groups.
  [[nodiscard]] bool copy_fits_with(const GroupHashTable& src, key_type key) const {
    GH_DCHECK(src.group_size_ == group_size_ && src.hash_.seed() == hash_.seed());
    const u64 home = hash_(key) & mask_;
    const u64 first = home - home % group_size_;
    const u64 g = (first / group_size_) & (src.num_groups() - 1);
    std::vector<u8> taken(tags1_ + first, tags1_ + first + group_size_);
    u64 level2 = 0;
    for (u64 i = first; i < first + group_size_; ++i) level2 += tags2_[i] != 0 ? 1 : 0;
    const auto take = [&](u64 k) {
      u8& t = taken[k - first];
      level2 += t != 0 ? 1 : 0;
      t = 1;
    };
    take(home);
    for (u32 level = 0; level < 2; ++level) {
      const Cell* cells = level == 0 ? src.tab1_ : src.tab2_;
      const u8* tags = level == 0 ? src.tags1_ : src.tags2_;
      for (u64 i = g * group_size_; i < (g + 1) * group_size_; ++i) {
        if (tags[i] == 0) continue;
        const u64 k = hash_(cells[i].key()) & mask_;
        if (k - k % group_size_ == first) take(k);
      }
    }
    return level2 <= group_size_;
  }

  /// Algorithm 4: full-scan recovery. Scrubs the payload of every
  /// unoccupied cell that still holds bytes (a torn insert or the tail of
  /// a committed delete) and recomputes `count`. A poisoned cell is
  /// scrubbed too (the stores heal/remap the line) and its contents
  /// counted as lost — recovery completes instead of aborting the open.
  /// When checksums are enabled they are REBUILT afterwards: in-flight
  /// operations legitimately leave them stale across a crash. The
  /// rebuilt count and checksum words are persisted under kEager only;
  /// under kRecoveryOnly seal() stays their one durable writer (a crash
  /// before it just recovers again).
  RecoveryReport recover() {
    const u64 rolled_back = wal_ ? wal_->recover() : 0;
    RecoveryReport report = recover_slice(0, level_cells_, *pm_);
    report.wal_records_rolled_back = rolled_back;
    set_recovered_count(report.recovered_count);
    return report;
  }

  /// One slice of the Algorithm-4 scan: indices [begin, end) of BOTH
  /// levels, scrubbing through `pm` (callers running slices on separate
  /// threads pass one persistence policy per thread). Does NOT update the
  /// header count — the caller aggregates slice counts and publishes once.
  /// When checksums are enabled, [begin, end) must be group-aligned so the
  /// slice can rebuild the checksums of exactly the groups it owns (see
  /// core/parallel_recovery.hpp, which rounds its chunk size).
  template <class SlicePM>
  RecoveryReport recover_slice(u64 begin, u64 end, SlicePM& pm) {
    if (crc_) {
      GH_CHECK_MSG(begin % group_size_ == 0 && (end % group_size_ == 0 || end == level_cells_),
                   "checksummed recovery slices must be group-aligned");
    }
    RecoveryReport report;
    for (u64 i = begin; i < end; ++i) {
      for (Cell* c : {&tab1_[i], &tab2_[i]}) {
        report.cells_scanned++;
        try {
          pm.touch_read(c, sizeof(Cell));
        } catch (const nvm::MediaError&) {
          report.media_errors++;
          stats_.media_errors++;
          stats_.cells_lost++;
          c->scrub(pm);
          report.cells_scrubbed++;
          continue;
        }
        if (!c->occupied()) {
          if (c->payload_dirty()) {
            c->scrub(pm);
            report.cells_scrubbed++;
          }
        } else {
          report.recovered_count++;
        }
      }
    }
    if (crc_) rebuild_checksums_range(begin, end, pm);
    rebuild_tags(begin, end);
    return report;
  }

  /// Make the count and every group checksum word exact on media: store
  /// the exact count, flush it and the whole checksum array, one fence.
  /// A clean shutdown calls this before its clean mark, so under
  /// kRecoveryOnly an image marked clean always carries exact words; in
  /// that mode nothing else persists them. Under kEager the words are already durable and this re-persists
  /// them.
  void seal() {
    pm_->atomic_store_u64(&header_->count, volatile_count_.load());
    pm_->flush(&header_->count, sizeof(u64));
    if (crc_) pm_->flush(crc_, 2 * num_groups() * sizeof(u64));
    pm_->fence();
  }

  /// Publish a recovered count (used by parallel recovery after merging
  /// slice results; persisted under kEager only).
  void set_recovered_count(u64 count) {
    pm_->store_u64(&header_->count, count);
    if (eager()) pm_->persist(&header_->count, sizeof(u64));
    volatile_count_ = count;
  }

  /// Incremental integrity pass: verify the checksums of groups
  /// [first_group, first_group + max_groups) — clamped, not wrapped — on
  /// both levels. A group that fails (digest mismatch or poisoned read)
  /// is quarantined: every occupied cell is dropped (or salvaged, per
  /// `mode`) and reported through `on_loss(const LostCell&)`, torn
  /// payloads are scrubbed, the checksum is re-sealed over what remains,
  /// and the group stops accepting new inserts. No-op when checksums are
  /// disabled. Never throws for faults inside the table — MediaError is
  /// contained and counted.
  template <class Fn>
  ScrubReport scrub_groups(u64 first_group, u64 max_groups, Fn&& on_loss,
                           ScrubMode mode = ScrubMode::kDropGroup) {
    ScrubReport report;
    if (!crc_) return report;
    const u64 ngroups = num_groups();
    if (first_group >= ngroups) return report;
    const u64 n = std::min(max_groups, ngroups - first_group);
    for (u64 g = first_group; g < first_group + n; ++g) {
      for (u32 level = 0; level < 2; ++level) {
        scrub_one_group(level, g, report, on_loss, mode);
      }
    }
    return report;
  }

  /// Visit every occupied cell (used by the core API's expansion rebuild).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (u64 i = 0; i < 2 * level_cells_; ++i) {
      const Cell& c = tab1_[i];
      if (c.occupied()) fn(c.key(), c.value);
    }
  }

  /// Visit every occupied cell of group `g` — its addressable (level-1)
  /// cells and the collision (level-2) cells sharing the group number,
  /// level 1 first. This is the unit a resize migration moves (see
  /// copy_group): exactly the keys the durable cursor word hands off.
  template <class Fn>
  void for_each_in_group(u64 g, Fn&& fn) const {
    GH_DCHECK(g < num_groups());
    for (const Cell* base : {tab1_ + g * group_size_, tab2_ + g * group_size_}) {
      for (u32 i = 0; i < group_size_; ++i) {
        if (base[i].occupied()) fn(base[i].key(), base[i].value);
      }
    }
  }

  /// The level-1 index `key` hashes to: its home slot.
  [[nodiscard]] u64 home_index(const key_type& key) const { return hash_(key) & mask_; }

  /// Read-only cell access for inspection tooling (gh_fsck, core/inspect).
  [[nodiscard]] const Cell& level1_cell(u64 i) const { return tab1_[i]; }
  [[nodiscard]] const Cell& level2_cell(u64 i) const { return tab2_[i]; }

  [[nodiscard]] u64 count() const {
    return count_mode_ == CountMode::kEager ? header_->count : volatile_count_.load();
  }
  [[nodiscard]] u64 capacity() const { return 2 * level_cells_; }
  [[nodiscard]] double load_factor() const {
    return static_cast<double>(count()) / static_cast<double>(capacity());
  }
  [[nodiscard]] u32 group_size() const { return group_size_; }
  [[nodiscard]] u64 level_cells() const { return level_cells_; }
  [[nodiscard]] u64 num_groups() const { return level_cells_ / group_size_; }
  [[nodiscard]] u64 seed() const { return header_->seed; }
  [[nodiscard]] bool checksums_enabled() const { return crc_ != nullptr; }
  /// Stored checksum word of (level 0/1, group) — inspection tooling.
  [[nodiscard]] u64 group_checksum(u32 level, u64 g) const {
    GH_DCHECK(crc_ != nullptr && level < 2 && g < num_groups());
    return crc_[level * num_groups() + g];
  }
  [[nodiscard]] bool group_quarantined(u32 level, u64 g) const { return is_quarantined(level, g); }
  /// Read-only re-derivation of one group's checksum (inspection/fsck):
  /// no quarantine, no counters, no scrubbing, no media-read hooks.
  [[nodiscard]] bool verify_group_checksum(u32 level, u64 g) const {
    GH_DCHECK(crc_ != nullptr && level < 2 && g < num_groups());
    const Cell* base = (level == 0 ? tab1_ : tab2_) + g * group_size_;
    u64 digest = 0;
    for (u32 i = 0; i < group_size_; ++i) digest ^= cell_digest(base + i);
    return digest == crc_[level * num_groups() + g];
  }
  /// Number of (level, group) pairs currently quarantined.
  [[nodiscard]] u64 quarantined_groups() const {
    if (!any_quarantined_) return 0;
    u64 n = 0;
    for (const u8 q : quarantined_) n += q;
    return n;
  }
  [[nodiscard]] TableStats& stats() { return stats_; }
  [[nodiscard]] const TableStats& stats() const { return stats_; }
  [[nodiscard]] PM& pm() { return *pm_; }

  // --- fingerprint-tag access (read views + tests) -------------------------

  /// Shared ownership of the DRAM tag block ([level 1][level 2], one byte
  /// per cell). Read views copy this so retired views survive expansion.
  [[nodiscard]] std::shared_ptr<const u8[]> tags_shared() const { return tags_; }

  /// Test/debug: tag byte of (level 0/1, cell index).
  [[nodiscard]] u8 debug_tag(u32 level, u64 i) const {
    GH_DCHECK(level < 2 && i < level_cells_);
    return (level == 0 ? tags1_ : tags2_)[i];
  }

  /// Test hook: full-rescan check of the tag invariant — tag[i] is 0 for
  /// an unoccupied cell and tag_of_hash(hash(key)) for an occupied one.
  [[nodiscard]] bool verify_tags() const {
    for (u64 i = 0; i < level_cells_; ++i) {
      const u8 want1 = tab1_[i].occupied() ? tag_of_hash(hash_(tab1_[i].key())) : 0;
      const u8 want2 = tab2_[i].occupied() ? tag_of_hash(hash_(tab2_[i].key())) : 0;
      if (tags1_[i] != want1 || tags2_[i] != want2) return false;
    }
    return true;
  }

 private:
  Cell* probe(Cell* c) {
    pm_->touch_read(c, sizeof(Cell));
    stats_.probes++;
    return c;
  }

  /// Level-2 group scan shared by find_at/find_cell_at: DRAM byte-tag
  /// sweep, then — when the cell layout has an in-cell 16-bit tag — the
  /// dispatched commit-word filter over the byte-tag survivors, then full
  /// key compares on what little is left. `probed` returns the number of
  /// cells dereferenced, `scanned` the tag bytes consumed (hit position
  /// + 1, or the whole group on a miss) — the same accounting the
  /// historical per-candidate scalar loop produced.
  Cell* scan_group(key_type key, u64 j, u8 tag, u32& probed, u32& scanned) {
    Cell* found = nullptr;
    probed = 0;
    scanned = group_size_;
    if constexpr (kInCellTag) {
      // Chunked two-stage filter: collect byte-tag candidates, narrow by
      // one vector compare of their commit words (bitmap | 16-bit tag),
      // key-compare only the survivors. A false full-key compare now
      // needs a byte-tag AND an in-cell-tag collision to coincide.
      const u64 expect = Cell::kOccupiedBit | Cell::tag_of(key);
      const u64* words = reinterpret_cast<const u64*>(&tab2_[j]);
      constexpr u32 kChunk = 32;
      std::array<u32, kChunk> cand;
      u32 nc = 0;
      // `swept` is where the byte sweep stopped — on a hit the skipped-byte
      // count is swept - probed, and every candidate position is < swept,
      // so probed can never exceed it.
      auto drain = [&](u32 swept) {
        probed += nc;
        stats_.level2_probes += nc;
        for (u32 s = 0; s < nc; ++s) probe(&tab2_[j + cand[s]]);
        const u32 kept =
            filter_in_cell_tags(words, sizeof(Cell) / sizeof(u64), cand.data(), nc, expect);
        for (u32 s = 0; s < kept && found == nullptr; ++s) {
          Cell* c2 = &tab2_[j + cand[s]];
          if (c2->matches(key)) {
            found = c2;
            scanned = swept;
          }
        }
        nc = 0;
      };
      for_each_tag_match(tags2_ + j, group_size_, tag, [&](u32 i) {
        cand[nc++] = i;
        if (nc == kChunk) {
          drain(i + 1);
          return found != nullptr;
        }
        return false;
      });
      if (found == nullptr && nc > 0) drain(group_size_);
    } else {
      for_each_tag_match(tags2_ + j, group_size_, tag, [&](u32 i) {
        Cell* c2 = probe(&tab2_[j + i]);
        stats_.level2_probes++;
        probed++;
        if (c2->matches(key)) {
          found = c2;
          scanned = i + 1;
          return true;
        }
        return false;
      });
    }
    return found;
  }

  /// True when every window persists the count and checksum words.
  [[nodiscard]] bool eager() const { return count_mode_ == CountMode::kEager; }
  [[nodiscard]] bool same_line() const { return commit_order_ == CommitOrder::kSameLine; }

  void bump_count(i64 delta) {
    if (eager()) {
      pm_->atomic_store_u64(&header_->count, header_->count + static_cast<u64>(delta));
      pm_->persist(&header_->count, sizeof(u64));
      volatile_count_ = header_->count;
    } else {
      // Recovery-only: the on-NVM count goes stale; Algorithm 4 fixes it.
      volatile_count_ += static_cast<u64>(delta);
    }
  }

  void count_batch(usize keys) {
    stats_.batch_ops++;
    stats_.batch_keys += keys;
  }

  /// prefetch_probe_lines() for hash `h` of this table, counted in
  /// stats().prefetches_issued. Every single-key probe issues it right
  /// after hashing (find, find_cell, plan_window).
  void prefetch_probe(u64 h) {
    stats_.prefetches_issued +=
        prefetch_probe_lines(tab1_, tags1_, tags2_, mask_, group_size_, h);
  }

  /// Tag-filtered probe (Algorithm 2 + fingerprint filter): only cells
  /// whose tag byte matches tag_of_hash(h) get a full key compare.
  std::optional<u64> find_at(key_type key, u64 h) {
    std::optional<u64> out;
    if (find_home(key, h, out)) return out;
    return find_in_group(key, h);
  }

  /// find_at's level-1 half: counts the query and the level-1 probe, and
  /// true (with `out` set) when the key's home cell holds it.
  bool find_home(key_type key, u64 h, std::optional<u64>& out) {
    stats_.queries++;
    const u64 k = h & mask_;
    if (tags1_[k] != tag_of_hash(h)) {
      stats_.tag_skips++;
      return false;
    }
    const Cell* c1 = probe(&tab1_[k]);
    stats_.tag_probes++;
    if (c1->matches(key)) {
      stats_.query_hits++;
      out = c1->value;
      return true;
    }
    stats_.tag_false_positives++;
    return false;
  }

  /// find_at's level-2 half: the group scan of a key its home cell did
  /// not answer.
  std::optional<u64> find_in_group(key_type key, u64 h) {
    const u64 k = h & mask_;
    u32 probed = 0;
    u32 scanned = group_size_;
    Cell* c2 = scan_group(key, k - k % group_size_, tag_of_hash(h), probed, scanned);
    stats_.tag_probes += probed;
    stats_.tag_skips += scanned - probed;
    if (c2 != nullptr) {
      stats_.tag_false_positives += probed - 1;
      stats_.query_hits++;
      return c2->value;
    }
    stats_.tag_false_positives += probed;
    return std::nullopt;
  }

  /// find_batch's probe set for staged_probe(): this table's plain and
  /// SIMD loads, counted as find() counts them, plus the staged
  /// prefetches.
  struct LockedProbe {
    using key_type = GroupHashTable::key_type;
    GroupHashTable& t;

    [[nodiscard]] u64 hash(const key_type& key) const { return t.hash_(key); }
    void prefetch_home(u64 h) {
      t.stats_.prefetches_issued += prefetch_home_lines(t.tab1_, t.tags1_, h & t.mask_);
    }
    bool probe_home(const key_type& key, u64 h, std::optional<u64>& out) {
      return t.find_home(key, h, out);
    }
    void prefetch_group_tags(u64 h) {
      const u64 k = h & t.mask_;
      t.stats_.prefetches_issued +=
          prefetch_group_tag_lines(t.tags2_, k - k % t.group_size_, t.group_size_);
    }
    /// Every cell the byte-tag sweep passes on: under Cell32 the in-cell
    /// filter reads each one's commit word.
    u32 prefetch_candidates(u64 h) {
      const u64 k = h & t.mask_;
      const Cell* group = t.tab2_ + (k - k % t.group_size_);
      u32 issued = 0;
      for_each_tag_match(t.tags2_ + (k - k % t.group_size_), t.group_size_, tag_of_hash(h),
                         [&](u32 i) {
                           __builtin_prefetch(group + i, /*rw=*/0, /*locality=*/1);
                           ++issued;
                           return false;
                         });
      t.stats_.prefetches_issued += issued;
      return issued;
    }
    /// find_in_group, or for a key with no candidate, what it would
    /// count: the whole group skipped.
    std::optional<u64> probe_group(const key_type& key, u64 h, u32 candidates) {
      if (candidates != 0) return t.find_in_group(key, h);
      t.stats_.tag_skips += t.group_size_;
      return std::nullopt;
    }
  };

  Cell* find_cell(key_type key) {
    const u64 h = hash_(key);
    prefetch_probe(h);
    return find_cell_at(key, h);
  }

  Cell* find_cell_at(key_type key, u64 h) {
    const u64 k = h & mask_;
    const u8 tag = tag_of_hash(h);
    if (tags1_[k] == tag) {
      Cell* c1 = probe(&tab1_[k]);
      if (c1->matches(key)) return c1;
    }
    u32 probed = 0;
    u32 scanned = 0;
    return scan_group(key, k - k % group_size_, tag, probed, scanned);
  }

  /// True for cell layouts that carry a 16-bit key tag inside the commit
  /// word (Cell32); those get a second, dispatched filter stage between
  /// the DRAM byte-tag sweep and the full key compare.
  static constexpr bool kInCellTag =
      requires(const typename Cell::key_type& k) { Cell::tag_of(k); };

  // --- fingerprint-tag machinery -------------------------------------------

  /// Tag byte of a cell: levels are contiguous in both arrays, so the
  /// cell's global index is also its tag index.
  [[nodiscard]] u8* tag_slot(const Cell* c) { return tags_.get() + global_index(c); }

  /// Recompute the tags of cell indices [begin, end) of BOTH levels from
  /// the cells (attach/recovery; also per-group after scrub containment).
  void rebuild_tags(u64 begin, u64 end) {
    for (u64 i = begin; i < end; ++i) {
      tag_store(tags1_ + i, tab1_[i].occupied() ? tag_of_hash(hash_(tab1_[i].key())) : 0);
      tag_store(tags2_ + i, tab2_[i].occupied() ? tag_of_hash(hash_(tab2_[i].key())) : 0);
    }
  }

  // --- batched-mutation machinery ------------------------------------------

  /// Per-window accumulator of group-checksum deltas: XORs of per-cell
  /// digest changes, folded per slot and applied with one store each —
  /// plus, when `durable`, one flush each and a single fence.
  struct CrcDeltaWindow {
    std::array<u64*, 2 * kBatchWindow> slots;  // [0, n) live; left uninitialised
    std::array<u64, 2 * kBatchWindow> deltas;
    usize n = 0;

    void add(u64* slot, u64 delta) {
      for (usize i = 0; i < n; ++i) {
        if (slots[i] == slot) {
          deltas[i] ^= delta;
          return;
        }
      }
      slots[n] = slot;
      deltas[n] = delta;
      n++;
    }

    void apply(PM& pm, bool durable) {
      if (n == 0) return;
      for (usize i = 0; i < n; ++i) {
        pm.atomic_store_u64(slots[i], *slots[i] ^ deltas[i]);
        if (durable) pm.flush(slots[i], sizeof(u64));
      }
      if (durable) pm.fence();
      n = 0;
    }
  };

  /// The PM view of a kSameLine window and of the kFenced clear_group
  /// (Level Hashing's one flush per shared line): stores pass straight
  /// through, a flush only marks its lines, and each marked line is
  /// flushed once, by drain_final() once it is final or by drain(). The
  /// last marked line is checked first, so the cells of one line in a row
  /// (clear_group's address-ordered walk) cost O(1) each. A window dirties
  /// at most one line per key, so only the kFenced clear_group fills the
  /// view; a full view drains, which only moves flushes earlier. No
  /// fence: the caller drains before each fence it issues.
  struct DirtyLines {
    static constexpr usize kCapacity = kBatchWindow;
    static constexpr usize kNever = ~usize{0};
    PM& pm;
    // [0, n) live; left uninitialised. until[m]: the window index after
    // which no key can touch lines[m] again.
    std::array<const std::byte*, kCapacity> lines;
    std::array<usize, kCapacity> until;
    usize n = 0;
    usize touch_until = kNever;  ///< `until` of the lines marked from now on

    explicit DirtyLines(PM& p) : pm(p) {}

    void store_u64(u64* dst, u64 v) { pm.store_u64(dst, v); }
    void atomic_store_u64(u64* dst, u64 v) { pm.atomic_store_u64(dst, v); }
    void flush(const void* addr, usize len) {
      const auto* end = static_cast<const std::byte*>(addr) + len;
      for (const std::byte* line = nvm::line_begin(addr); line < end; line += kCachelineSize) {
        usize m = n;
        while (m > 0 && lines[m - 1] != line) --m;
        if (m > 0) {
          until[m - 1] = std::max(until[m - 1], touch_until);
          continue;
        }
        if (n == kCapacity) drain();
        lines[n] = line;
        until[n++] = touch_until;
      }
    }
    /// Flush every marked line once.
    void drain() {
      for (usize m = 0; m < n; ++m) pm.flush(lines[m], kCachelineSize);
      n = 0;
    }
    /// Before window key i: flush the lines no key from i on can touch.
    void drain_final(usize i) {
      usize kept = 0;
      for (usize m = 0; m < n; ++m) {
        if (until[m] < i) {
          pm.flush(lines[m], kCachelineSize);
        } else {
          lines[kept] = lines[m];
          until[kept++] = until[m];
        }
      }
      n = kept;
    }
  };

  /// The PM view of the kSameLine clear_group: stores pass straight
  /// through and flushes are dropped.
  struct StoresOnly {
    PM& pm;
    void store_u64(u64* dst, u64 v) { pm.store_u64(dst, v); }
    void atomic_store_u64(u64* dst, u64 v) { pm.atomic_store_u64(dst, v); }
    void flush(const void*, usize) {}
  };

  /// copy_group's record of the target lines it wrote: one bit per line of
  /// each of its four regions (target groups × levels), each region
  /// region_lines_ bits from the line its first cell starts in.
  void mark_copy_line(usize r, const Cell* region_start, const Cell* c) {
    const auto offset = static_cast<usize>(nvm::line_begin(c) - nvm::line_begin(region_start));
    const usize bit = r * region_lines_ + offset / kCachelineSize;
    copy_lines_[bit / 64] |= u64{1} << (bit % 64);
  }

  /// Flush every marked line once, in address order (regions are in
  /// address order), each run of adjacent lines in one call, and clear
  /// the marks.
  void flush_copy_lines(const std::array<Cell*, 4>& region) {
    const std::byte* run = nullptr;
    usize run_lines = 0;
    for (usize w = 0; w < copy_lines_.size(); ++w) {
      for (u64 bits = std::exchange(copy_lines_[w], 0); bits != 0; bits &= bits - 1) {
        const usize b = w * 64 + static_cast<usize>(std::countr_zero(bits));
        const std::byte* line =
            nvm::line_begin(region[b / region_lines_]) + (b % region_lines_) * kCachelineSize;
        // A line two regions share comes up twice in a row.
        if (run != nullptr && line < run + run_lines * kCachelineSize) continue;
        if (run != nullptr && line == run + run_lines * kCachelineSize) {
          run_lines++;
          continue;
        }
        if (run != nullptr) pm_->flush(run, run_lines * kCachelineSize);
        run = line;
        run_lines = 1;
      }
    }
    if (run != nullptr) pm_->flush(run, run_lines * kCachelineSize);
  }

  /// A window's key hashes and, under kSameLine, when its marked lines are
  /// final. Every line a key's op touches lies in the key's home group
  /// (its level-1 cell, or a level-2 cell of the group), so a line is
  /// final once the window is past the last key whose home group touched
  /// it. Draining lines then, not all at the fence, keeps each flush near
  /// the stores that dirtied it (a run of clflushes serialises), and still
  /// flushes each line once wherever a group spans whole lines.
  struct WindowPlan {
    std::array<u64, kBatchWindow> hashes;  // [0, n) live; left uninitialised
    std::array<usize, kBatchWindow> last;  ///< last index sharing key i's home group
  };

  /// Hash a window's keys and prefetch each one's probe lines; under
  /// kSameLine also find, for each key, the last window index whose key
  /// has the same home group.
  void plan_window(std::span<const key_type> keys, WindowPlan& plan) {
    const usize n = keys.size();
    for (usize i = 0; i < n; ++i) {
      plan.hashes[i] = hash_(keys[i]);
      prefetch_probe(plan.hashes[i]);
    }
    if (!same_line()) return;
    // Walk back through the window with a small open-addressed map from
    // home group to the last index seen with it. A home group is the hash
    // bits above the group offset: group_size divides the power-of-two
    // level, so it is a power of two too.
    constexpr usize kSlots = 64;  // one bit each in `used`; a slot is the top 6 hash bits
    static_assert(kSlots >= 2 * kBatchWindow, "the map stays at most half full");
    std::array<u64, kSlots> groups;  // live where `used` has the bit
    std::array<usize, kSlots> last_seen;
    u64 used = 0;
    const u64 group_bits = mask_ & ~u64{group_size_ - 1};
    for (usize i = n; i-- > 0;) {
      const u64 g = plan.hashes[i] & group_bits;
      usize slot = (g * 0x9e3779b97f4a7c15ull) >> 58;
      while ((used >> slot & 1) != 0 && groups[slot] != g) slot = (slot + 1) % kSlots;
      if ((used >> slot & 1) == 0) {
        used |= u64{1} << slot;
        groups[slot] = g;
        last_seen[slot] = i;
      }
      plan.last[i] = last_seen[slot];
    }
  }

  /// Under kSameLine, before key i of a planned window is handled: flush
  /// the lines that are final, and tag what key i marks with its group's
  /// last index.
  void begin_key(const WindowPlan& plan, DirtyLines& lines, usize i) const {
    if (!same_line()) return;
    lines.drain_final(i);
    lines.touch_until = plan.last[i];
  }

  [[nodiscard]] u64* crc_slot_of(const Cell* c) const {
    const u64 gi = global_index(c);
    const u32 level = gi < level_cells_ ? 0 : 1;
    return crc_slot(level, (gi % level_cells_) / group_size_);
  }

  /// Windows of at most this many keys: one under an undo log, whose
  /// transaction covers exactly one op.
  [[nodiscard]] usize window_size() const { return wal_ ? 1 : kBatchWindow; }

  /// Undo-log a cell and the count before a logged window mutates them.
  void log_mutation(const Cell* c) {
    wal_->log_cell(c, sizeof(Cell));
    wal_->log_cell(&header_->count, sizeof(u64));
  }

  /// The tail every put and erase window ends with: the coalesced
  /// checksum deltas (a store each; under kEager also a flush each and
  /// one fence), then the count.
  void finish_window(CrcDeltaWindow& deltas, i64 count_delta) {
    if (crc_) deltas.apply(*pm_, eager());
    if (count_delta != 0) bump_count(count_delta);
  }

  /// The put core of insert/upsert and their batches. Within a window:
  ///   phase 1 — updates and payload staging (stores + flushes, commit
  ///             words untouched, so staged cells are invisible to finds)
  ///   fence   — staged payloads + in-place updates durable
  ///   phase 2 — atomic commit words + flushes
  ///   fence   — commits durable
  ///   tail    — finish_window
  /// Any commit word that reaches media implies the phase-1 fence
  /// retired, so the per-cell crash discipline is exactly publish()'s.
  /// Under kSameLine phase 1 publishes each new cell whole (payload, then
  /// commit word) and the phase-1 fence is the only one; a duplicate key
  /// later in the window re-stages the committed cell's value, which a
  /// crash may keep or lose like any later op. Its flushes go through a
  /// DirtyLines view that flushes each line once it is final, at the
  /// latest just before that fence, so a line holding several of the
  /// window's cells is flushed once. Every cell the window writes is
  /// digested when it is written (committed_digest for new values), so
  /// the checksum tail reads no cell whose line a flush has evicted.
  template <bool kCheckExisting>
  usize put_batch_impl(std::span<const key_type> keys, std::span<const u64> values) {
    GH_CHECK(values.size() >= keys.size());
    struct Staged {
      Cell* cell;
      key_type key;
      u32 old_digest;
      u32 new_digest;  ///< of the cell as committed with its latest value
    };
    // [0, nstaged) live; not value-initialised, so a window of one does
    // not pay for clearing 32 entries.
    std::array<Staged, kBatchWindow> staged;
    CrcDeltaWindow deltas;
    DirtyLines lines{*pm_};  // kSameLine flushes; stays empty under kFenced
    WindowPlan plan;
    const usize window = window_size();
    usize done = 0;
    while (done < keys.size()) {
      const usize n = std::min(window, keys.size() - done);
      if (wal_) wal_->begin();
      plan_window(keys.subspan(done, n), plan);
      usize nstaged = 0;
      usize updates = 0;
      usize consumed = 0;  // leading keys of this window fully handled
      bool full = false;
      for (usize i = 0; i < n; ++i) {
        begin_key(plan, lines, i);
        const key_type key = keys[done + i];
        const u64 value = values[done + i];
        const u64 h = plan.hashes[i];
        const u64 k = h & mask_;
        const u8 tag = tag_of_hash(h);
        // Duplicate of a cell staged in this window? Its commit word is
        // still unset (invisible to find_cell), so check the stage list.
        Staged* dup = nullptr;
        for (usize s = 0; s < nstaged; ++s) {
          if (staged[s].key == key) {
            dup = &staged[s];
            break;
          }
        }
        if (dup != nullptr) {
          if (same_line()) {
            dup->cell->stage_value(lines, value);
          } else {
            dup->cell->stage_value(*pm_, value);
          }
          if (crc_) dup->new_digest = committed_digest(dup->cell, key, value);
          consumed++;
          continue;
        }
        if (kCheckExisting) {
          if (Cell* c = find_cell_at(key, h)) {
            // In-place update, fence deferred to the window tail. The
            // delta is computed now, from the cell the probe just read
            // — its content is already final.
            if (crc_) {
              deltas.add(crc_slot_of(c), cell_digest(c) ^ committed_digest(c, c->key(), value));
            }
            pm_->atomic_store_u64(&c->value, value);
            if (same_line()) {
              lines.flush(&c->value, sizeof(u64));
            } else {
              pm_->flush(&c->value, sizeof(u64));
            }
            updates++;
            consumed++;
            continue;
          }
        }
        stats_.inserts++;
        // The tag array knows where the empty cells are (tag 0) without
        // touching PM: the level-1 slot is one byte, the level-2 scan is
        // a SIMD sweep for 0 over the group's tags.
        const u64 g = k / group_size_;
        Cell* target = nullptr;
        if (tags1_[k] == 0 && !is_quarantined(0, g)) {
          target = probe(&tab1_[k]);
          GH_DCHECK(!target->occupied());
        } else if (!is_quarantined(1, g)) {
          const u64 j = k - k % group_size_;
          for_each_tag_match(tags2_ + j, group_size_, /*tag=*/0, [&](u32 idx) {
            Cell* c2 = probe(&tab2_[j + idx]);
            stats_.level2_probes++;
            GH_DCHECK(!c2->occupied());
            target = c2;
            return true;
          });
        }
        if (target == nullptr) {
          stats_.insert_failures++;
          full = true;
          break;
        }
        if (wal_) log_mutation(target);
        const u32 old_digest = crc_ ? cell_digest(target) : 0;
        const u32 new_digest = crc_ ? committed_digest(target, key, value) : 0;
        if (same_line()) {
          target->publish_same_line(lines, key, value);
        } else {
          target->stage_payload(*pm_, key, value);
        }
        // Set the tag NOW so this window's later empty-slot scans skip
        // the staged cell (under kFenced its commit word still reads
        // unoccupied).
        tag_store(tag_slot(target), tag);
        staged[nstaged++] = Staged{target, key, old_digest, new_digest};
        consumed++;
      }
      // Window tail: finalize everything staged, even on a full stop.
      if (updates + nstaged > 0) {
        lines.drain();
        pm_->fence();  // phase-1 stores durable
      }
      if (nstaged > 0) {
        if (!same_line()) {
          for (usize s = 0; s < nstaged; ++s) {
            staged[s].cell->commit_staged(*pm_, staged[s].key);
          }
          pm_->fence();  // commit words durable
        }
        if (crc_) {
          for (usize s = 0; s < nstaged; ++s) {
            deltas.add(crc_slot_of(staged[s].cell), staged[s].old_digest ^ staged[s].new_digest);
          }
        }
      }
      finish_window(deltas, static_cast<i64>(nstaged));
      if (wal_) wal_->commit();
      done += consumed;
      if (full) break;
    }
    return done;
  }

  /// The erase core of erase/erase_batch. Within a window: every hit's
  /// commit word cleared (+flush) → fence → payloads wiped → fence →
  /// finish_window. Under kSameLine each hit is cleared and wiped in its
  /// line, each line the window dirtied is flushed once (DirtyLines), and
  /// the window fences once.
  usize erase_impl(std::span<const key_type> keys, std::span<u8> hits) {
    GH_CHECK(hits.empty() || hits.size() >= keys.size());
    // [0, nvictims) live; not value-initialised (see put_batch_impl).
    std::array<Cell*, kBatchWindow> victims;
    std::array<u32, kBatchWindow> old_digests;
    CrcDeltaWindow deltas;
    DirtyLines lines{*pm_};  // kSameLine flushes; stays empty under kFenced
    WindowPlan plan;
    const usize window = window_size();
    usize erased = 0;
    for (usize base = 0; base < keys.size(); base += window) {
      const usize n = std::min(window, keys.size() - base);
      if (wal_) wal_->begin();
      plan_window(keys.subspan(base, n), plan);
      usize nvictims = 0;
      for (usize i = 0; i < n; ++i) {
        begin_key(plan, lines, i);
        stats_.erases++;
        Cell* c = find_cell_at(keys[base + i], plan.hashes[i]);
        if (!hits.empty()) hits[base + i] = c != nullptr ? 1 : 0;
        if (c == nullptr) continue;
        if (wal_) log_mutation(c);
        // Phase 1: atomic commit-word clear + flush. The cleared word is
        // immediately visible, so a duplicate key later in the window
        // misses — sequential semantics.
        old_digests[nvictims] = crc_ ? cell_digest(c) : 0;
        if (same_line()) {
          c->retract_same_line(lines);
        } else {
          c->retract_commit(*pm_);
        }
        tag_store(tag_slot(c), 0);
        victims[nvictims++] = c;
        stats_.erase_hits++;
      }
      if (nvictims > 0) {
        // Clears durable before any wipe store issues (under kSameLine,
        // each cell cleared and wiped).
        lines.drain();
        pm_->fence();
        if (!same_line()) {
          for (usize v = 0; v < nvictims; ++v) victims[v]->retract_wipe(*pm_);
          pm_->fence();
        }
        if (crc_) {
          for (usize v = 0; v < nvictims; ++v) {
            // Final cell content is all-zero (digest 0): delta = old digest.
            deltas.add(crc_slot_of(victims[v]), old_digests[v]);
          }
        }
      }
      finish_window(deltas, -static_cast<i64>(nvictims));
      if (wal_) wal_->commit();
      erased += nvictims;
    }
    return erased;
  }

  // --- integrity machinery ---------------------------------------------------

  /// Global cell index: tab1 cells are [0, level_cells), tab2 cells
  /// [level_cells, 2*level_cells) — the two levels are contiguous.
  [[nodiscard]] u64 global_index(const Cell* c) const { return static_cast<u64>(c - tab1_); }

  /// Digest of one cell, seeded with its global index so content swapped
  /// between cells still changes the group XOR. All-zero cells digest to
  /// 0, making an empty group's checksum 0 without any formatting pass.
  [[nodiscard]] u32 cell_digest(const Cell* c) const {
    const auto* words = reinterpret_cast<const u64*>(c);
    constexpr usize kWords = sizeof(Cell) / sizeof(u64);
    u64 any = 0;
    for (usize i = 0; i < kWords; ++i) any |= words[i];
    if (any == 0) return 0;
    return crc32c_seeded(global_index(c), c, sizeof(Cell));
  }

  [[nodiscard]] u64* crc_slot(u32 level, u64 g) const { return &crc_[level * num_groups() + g]; }

  /// Digest `c` has once it holds (key, value) committed, derived from a
  /// local image of the cell rather than from the cell: a committed cell's
  /// bytes are a function of its key and value alone. A window digests
  /// each cell it writes this way before the cell's line can be flushed,
  /// so it never reads back a line the flush has evicted.
  [[nodiscard]] u32 committed_digest(const Cell* c, const key_type& key, u64 value) const {
    struct ImageStores {
      void store_u64(u64* dst, u64 v) { *dst = v; }
      void atomic_store_u64(u64* dst, u64 v) { *dst = v; }
      void flush(const void*, usize) {}
    } image_stores;
    Cell image{};
    image.publish_same_line(image_stores, key, value);
    return crc32c_seeded(global_index(c), &image, sizeof(Cell));
  }

  /// XOR a mutated cell's digest delta into its group checksum
  /// (persisted under kEager only). 8-byte atomic store: readers of the
  /// checksum word never see a torn value, and a crash between cell
  /// commit and checksum store only leaves the checksum stale — recovery
  /// rebuilds all of them.
  void apply_digest_delta(const Cell* c, u32 delta) {
    u64* slot = crc_slot_of(c);
    pm_->atomic_store_u64(slot, *slot ^ delta);
    if (eager()) pm_->persist(slot, sizeof(u64));
  }

  /// Recompute and store the checksums of the groups covering cell
  /// indices [begin, end) of BOTH levels (used by recovery; persisted
  /// under kEager only).
  template <class AnyPM>
  void rebuild_checksums_range(u64 begin, u64 end, AnyPM& pm) {
    const u64 first_group = begin / group_size_;
    const u64 last_group = (end + group_size_ - 1) / group_size_;
    for (u64 g = first_group; g < last_group; ++g) {
      for (u32 level = 0; level < 2; ++level) {
        Cell* base = (level == 0 ? tab1_ : tab2_) + g * group_size_;
        u64 digest = 0;
        for (u32 i = 0; i < group_size_; ++i) digest ^= cell_digest(base + i);
        pm.atomic_store_u64(crc_slot(level, g), digest);
      }
      if (eager()) {
        pm.persist(crc_slot(0, g), sizeof(u64));
        pm.persist(crc_slot(1, g), sizeof(u64));
      }
    }
  }

  [[nodiscard]] bool is_quarantined(u32 level, u64 g) const {
    return any_quarantined_ && quarantined_[level * num_groups() + g] != 0;
  }

  /// Does `key` hash back to this cell (level 0) / this group (level 1)?
  [[nodiscard]] bool location_consistent(u32 level, u64 cell_index, key_type key) const {
    const u64 k = hash_(key) & mask_;
    return level == 0 ? k == cell_index : k / group_size_ == cell_index / group_size_;
  }

  template <class Fn>
  void scrub_one_group(u32 level, u64 g, ScrubReport& report, Fn&& on_loss, ScrubMode mode) {
    Cell* base = (level == 0 ? tab1_ : tab2_) + g * group_size_;
    report.groups_checked++;
    stats_.groups_scrubbed++;
    // Verification pass: re-derive the group digest. A poisoned read
    // aborts straight into containment.
    u64 digest = 0;
    bool media_fault = false;
    for (u32 i = 0; i < group_size_ && !media_fault; ++i) {
      report.cells_scanned++;
      try {
        pm_->touch_read(base + i, sizeof(Cell));
        digest ^= cell_digest(base + i);
      } catch (const nvm::MediaError&) {
        media_fault = true;
      }
    }
    if (!media_fault && digest == *crc_slot(level, g)) return;
    if (media_fault) {
      report.media_errors++;
      stats_.media_errors++;
    } else {
      report.crc_mismatches++;
      stats_.crc_mismatches++;
    }
    // Containment pass: visit every cell again, reporting and dropping
    // (or salvaging) occupied ones. Stores heal poisoned lines, so the
    // group is physically reusable afterwards even though it stays
    // quarantined for placement.
    i64 dropped = 0;
    u64 new_digest = 0;
    for (u32 i = 0; i < group_size_; ++i) {
      Cell* c = base + i;
      const u64 cell_index = g * group_size_ + i;
      bool readable = true;
      try {
        pm_->touch_read(c, sizeof(Cell));
      } catch (const nvm::MediaError&) {
        readable = false;
      }
      if (!readable) {
        on_loss(LostCell{.level = level + 1,
                         .group = g,
                         .cell_index = cell_index,
                         .readable = false});
        report.cells_lost++;
        stats_.cells_lost++;
        c->scrub(*pm_);
        report.cells_scrubbed++;
        stats_.cells_scrubbed++;
        // Occupancy was unknowable, so `count` may drift here; the next
        // recovery recomputes it from the scan.
        continue;
      }
      if (!c->occupied()) {
        if (c->payload_dirty()) {
          c->scrub(*pm_);
          report.cells_scrubbed++;
          stats_.cells_scrubbed++;
        }
        continue;
      }
      const bool consistent = location_consistent(level, cell_index, c->key());
      const bool salvage = mode == ScrubMode::kSalvage && consistent;
      on_loss(LostCell{.level = level + 1,
                       .group = g,
                       .cell_index = cell_index,
                       .key = to_key128(c->key()),
                       .value = c->value,
                       .readable = true,
                       .location_consistent = consistent,
                       .salvaged = salvage});
      if (salvage) {
        new_digest ^= cell_digest(c);
        continue;
      }
      report.cells_lost++;
      stats_.cells_lost++;
      c->scrub(*pm_);
      report.cells_scrubbed++;
      stats_.cells_scrubbed++;
      dropped++;
    }
    if (dropped > 0) bump_count(-dropped);
    // Containment scrubbed/dropped cells in place: re-derive the group's
    // tags so the DRAM filter matches the cells again.
    const u64 tag_begin = g * group_size_;
    u8* group_tags = (level == 0 ? tags1_ : tags2_) + tag_begin;
    Cell* group_cells = (level == 0 ? tab1_ : tab2_) + tag_begin;
    for (u32 i = 0; i < group_size_; ++i) {
      tag_store(group_tags + i,
                group_cells[i].occupied() ? tag_of_hash(hash_(group_cells[i].key())) : 0);
    }
    // Re-seal the checksum over what remains (durable at once under
    // kEager, at the next seal() under kRecoveryOnly), then fence the
    // group off.
    pm_->atomic_store_u64(crc_slot(level, g), new_digest);
    if (eager()) pm_->persist(crc_slot(level, g), sizeof(u64));
    quarantined_[level * num_groups() + g] = 1;
    any_quarantined_ = true;
    report.groups_quarantined++;
    stats_.groups_quarantined++;
  }

  static Key128 to_key128(u64 k) { return Key128{k, 0}; }
  static Key128 to_key128(Key128 k) { return k; }

  PM* pm_;
  SeededHash hash_;
  Header* header_ = nullptr;
  Cell* tab1_ = nullptr;
  Cell* tab2_ = nullptr;
  std::shared_ptr<u8[]> tags_;  ///< DRAM fingerprint tags, 2*level_cells bytes
  u8* tags1_ = nullptr;         ///< = tags_.get()
  u8* tags2_ = nullptr;         ///< = tags_.get() + level_cells_
  u64* crc_ = nullptr;  ///< [level 1 groups][level 2 groups], one u64 each
  u64 level_cells_ = 0;
  u64 mask_ = 0;
  u32 group_size_ = 0;
  CountMode count_mode_ = CountMode::kEager;
  CommitOrder commit_order_ = CommitOrder::kFenced;
  AtomicCounter volatile_count_;  ///< exact; shared by concurrent wrappers
  UndoLog<PM>* wal_ = nullptr;
  TableStats stats_;
  std::vector<u8> quarantined_;  ///< volatile containment state, 1 byte per (level, group)
  bool any_quarantined_ = false;
  /// Lines one group of one level can span, with slack for a mid-line start.
  usize region_lines_ = 0;
  std::vector<u64> copy_lines_;  ///< copy_group's line marks, zero between calls
};

}  // namespace gh::hash
