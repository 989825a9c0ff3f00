// Versioned text serializers for obs::Snapshot, the one stats surface.
//
//   * export_json(Snapshot)       — {"schema":"gh.obs.snapshot.v1",…}
//   * export_prometheus(Snapshot) — Prometheus text exposition format
//     (counters as *_total, histograms as summary-style quantile lines)
//   * validate_json(…)            — minimal structural JSON check used
//     by the schema round-trip tests and the gh_stats self-test.
//
// One field table in export.cpp lists every scalar field of a Snapshot
// with its JSON key, Prometheus name and help text; both exporters and
// the validator's list of top-level keys are driven from it.
//
// The schema string embeds the version; adding fields is
// backwards-compatible, renaming or removing one bumps the version.
#pragma once

#include <string>
#include <string_view>

#include "obs/snapshot.hpp"

namespace gh::obs {

inline constexpr const char* kSnapshotSchema = "gh.obs.snapshot.v1";

/// One map/table snapshot as a JSON object.
[[nodiscard]] std::string export_json(const Snapshot& snapshot);

/// One map/table snapshot in Prometheus text format. Metric names get
/// `prefix` (default "gh_") and a source label.
[[nodiscard]] std::string export_prometheus(const Snapshot& snapshot,
                                            std::string_view prefix = "gh_");

/// Structural JSON validation (objects, arrays, strings, numbers, bools,
/// null; UTF-8 passthrough). Returns false and sets `error` (if given)
/// on the first syntax violation. Small by design — this is a schema
/// smoke check, not a parser for untrusted input.
[[nodiscard]] bool validate_json(std::string_view text, std::string* error = nullptr);

}  // namespace gh::obs
