// Per-table operation statistics. Orthogonal to nvm::PersistStats (which
// counts NVM traffic): these count algorithmic work — probes, level-2
// group probes, displacements, backward shifts, stash scans — the
// quantities the paper's analysis (§2.3, §4.2-4.3) reasons about.
#pragma once

#include <string>

#include "util/counters.hpp"
#include "util/types.hpp"

namespace gh::hash {

/// Result of an Algorithm-4 style recovery scan (and, for "-L" variants,
/// the undo-log rollback that precedes it).
struct RecoveryReport {
  u64 cells_scanned = 0;
  u64 cells_scrubbed = 0;
  u64 recovered_count = 0;
  u64 wal_records_rolled_back = 0;
  u64 media_errors = 0;  ///< poisoned cells hit (scrubbed/healed, contents lost)
  /// Ops the flight recorder (obs/flight_recorder.hpp) shows as in
  /// flight at the crash this recovery is repairing. Filled by the map
  /// layers (the raw table has no flight sidecar of its own); 0 when the
  /// recorder is off.
  u64 in_flight_ops = 0;
};

/// Result of an incremental integrity pass (scrub_groups): per-group
/// checksum verification over a window of groups, with quarantine of the
/// groups that fail. See hash/group_hashing.hpp.
struct ScrubReport {
  u64 groups_checked = 0;     ///< (level, group) pairs whose checksum was verified
  u64 cells_scanned = 0;
  u64 crc_mismatches = 0;     ///< group checksums that failed verification
  u64 groups_quarantined = 0; ///< groups quarantined by this pass
  u64 cells_lost = 0;         ///< occupied cells dropped from failed groups
  u64 cells_scrubbed = 0;     ///< torn/dropped payloads wiped
  u64 media_errors = 0;       ///< poisoned-line reads encountered (typed, contained)

  ScrubReport& operator+=(const ScrubReport& o) {
    groups_checked += o.groups_checked;
    cells_scanned += o.cells_scanned;
    crc_mismatches += o.crc_mismatches;
    groups_quarantined += o.groups_quarantined;
    cells_lost += o.cells_lost;
    cells_scrubbed += o.cells_scrubbed;
    media_errors += o.media_errors;
    return *this;
  }

  /// True when the scanned window showed no corruption of any kind.
  [[nodiscard]] bool clean() const {
    return crc_mismatches == 0 && cells_lost == 0 && media_errors == 0;
  }
};

/// One cell reported by scrub_groups when its group fails verification.
/// Key-normalized (Cell16 keys zero-extended to Key128) so the callback
/// signature is the same for every cell layout — the type-erased AnyTable
/// and the map layer forward it unchanged.
struct LostCell {
  u32 level = 0;       ///< 1 or 2
  u64 group = 0;       ///< group number within the level
  u64 cell_index = 0;  ///< cell index within the level
  Key128 key{};        ///< as read from media (zero when !readable)
  u64 value = 0;       ///< as read from media (zero when !readable)
  /// False when the cell itself sat on poisoned media — contents unknown.
  bool readable = true;
  /// True when the key still hashes back to this cell/group — the
  /// commit-word and key bits are self-consistent with the location.
  bool location_consistent = false;
  /// True when the cell was retained in place (ScrubMode::kSalvage);
  /// false when it was dropped and scrubbed. Salvaged cells are reported
  /// so nothing corrupt is ever served *silently*.
  bool salvaged = false;
};

/// Counters use RelaxedCounter so the concurrent wrappers can share a
/// table without data races; under concurrency statistics are
/// approximate (see util/counters.hpp), single-threaded they are exact.
struct TableStats {
  RelaxedCounter inserts;
  RelaxedCounter insert_failures;
  RelaxedCounter queries;
  RelaxedCounter query_hits;
  RelaxedCounter erases;
  RelaxedCounter erase_hits;
  RelaxedCounter probes;            ///< cells examined across all operations
  RelaxedCounter level2_probes;     ///< group hashing: collision-cell probes
  RelaxedCounter displacements;     ///< PFHT: cuckoo moves
  RelaxedCounter stash_probes;      ///< PFHT: stash cells examined
  RelaxedCounter backward_shifts;   ///< linear probing: cells moved on delete
  // Fingerprint-tag filter (group hashing; hash/tag_probe.hpp).
  RelaxedCounter tag_probes;           ///< tag-matched cells whose full key was compared
  RelaxedCounter tag_skips;            ///< cells skipped without a key compare
  RelaxedCounter tag_false_positives;  ///< tag matched but the key did not
  // Batched multi-op API.
  RelaxedCounter batch_ops;            ///< *_batch calls
  RelaxedCounter batch_keys;           ///< keys submitted across all *_batch calls
  RelaxedCounter prefetches_issued;    ///< software prefetches issued by prefetch_probe
  // Integrity counters (group hashing with per-group checksums).
  RelaxedCounter groups_scrubbed;     ///< (level, group) checksum verifications run
  RelaxedCounter cells_scrubbed;      ///< payloads wiped by recovery/scrub passes
  RelaxedCounter crc_mismatches;      ///< group checksum failures detected
  RelaxedCounter groups_quarantined;  ///< groups quarantined after a failure
  RelaxedCounter cells_lost;          ///< occupied cells dropped as unrecoverable
  RelaxedCounter media_errors;        ///< poisoned-line reads surfaced as MediaError

  void clear() { *this = TableStats{}; }

  /// Sum another table's counters in — how a resize carries both tables'
  /// history into the one that survives it.
  TableStats& operator+=(const TableStats& o) {
    inserts += o.inserts;
    insert_failures += o.insert_failures;
    queries += o.queries;
    query_hits += o.query_hits;
    erases += o.erases;
    erase_hits += o.erase_hits;
    probes += o.probes;
    level2_probes += o.level2_probes;
    displacements += o.displacements;
    stash_probes += o.stash_probes;
    backward_shifts += o.backward_shifts;
    tag_probes += o.tag_probes;
    tag_skips += o.tag_skips;
    tag_false_positives += o.tag_false_positives;
    batch_ops += o.batch_ops;
    batch_keys += o.batch_keys;
    prefetches_issued += o.prefetches_issued;
    groups_scrubbed += o.groups_scrubbed;
    cells_scrubbed += o.cells_scrubbed;
    crc_mismatches += o.crc_mismatches;
    groups_quarantined += o.groups_quarantined;
    cells_lost += o.cells_lost;
    media_errors += o.media_errors;
    return *this;
  }

  [[nodiscard]] std::string to_string() const {
    return "inserts=" + std::to_string(inserts) + "(" + std::to_string(insert_failures) +
           " failed) queries=" + std::to_string(queries) + "/" + std::to_string(query_hits) +
           " erases=" + std::to_string(erases) + "/" + std::to_string(erase_hits) +
           " probes=" + std::to_string(probes) +
           " l2probes=" + std::to_string(level2_probes) +
           " displacements=" + std::to_string(displacements) +
           " stash_probes=" + std::to_string(stash_probes) +
           " shifts=" + std::to_string(backward_shifts) +
           " tag_probes=" + std::to_string(tag_probes) + "(" +
           std::to_string(tag_false_positives) + " fp) tag_skips=" +
           std::to_string(tag_skips) + " batch=" + std::to_string(batch_ops) + "ops/" +
           std::to_string(batch_keys) + "keys prefetches=" +
           std::to_string(prefetches_issued) +
           " scrubbed=" + std::to_string(groups_scrubbed) + "g/" +
           std::to_string(cells_scrubbed) + "c crc_mismatches=" +
           std::to_string(crc_mismatches) + " quarantined=" +
           std::to_string(groups_quarantined) + " lost=" + std::to_string(cells_lost) +
           " media_errors=" + std::to_string(media_errors);
  }
};
static_assert(sizeof(TableStats) == 23 * sizeof(RelaxedCounter),
              "TableStats::operator+= must sum every counter");

}  // namespace gh::hash
