#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <variant>
#include <vector>

namespace gh::obs {
namespace {

// --------------------------------------------------------------------------
// JSON writer helpers (no library dependency; output is ASCII).

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

/// Tiny JSON object/array builder: tracks comma placement.
class Json {
 public:
  explicit Json(std::string& out) : out_(out) {}

  Json& begin_obj() {
    comma();
    out_ += '{';
    fresh_ = true;
    return *this;
  }
  Json& end_obj() {
    out_ += '}';
    fresh_ = false;
    return *this;
  }
  Json& begin_arr() {
    comma();
    out_ += '[';
    fresh_ = true;
    return *this;
  }
  Json& end_arr() {
    out_ += ']';
    fresh_ = false;
    return *this;
  }
  Json& key(std::string_view k) {
    comma();
    append_escaped(out_, k);
    out_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& value(u64 v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& value(double v) {
    comma();
    append_double(out_, v);
    return *this;
  }
  Json& value(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& value(std::string_view v) {
    comma();
    append_escaped(out_, v);
    return *this;
  }
  Json& field(std::string_view k, u64 v) { return key(k).value(v); }
  Json& field(std::string_view k, double v) { return key(k).value(v); }
  Json& field(std::string_view k, bool v) { return key(k).value(v); }
  Json& field(std::string_view k, std::string_view v) { return key(k).value(v); }
  // Without this, a string literal converts to bool (standard conversion)
  // before string_view (user-defined) and serializes as true/false.
  Json& field(std::string_view k, const char* v) {
    return key(k).value(std::string_view(v));
  }

 private:
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }

  std::string& out_;
  bool fresh_ = true;
};

void write_histogram(Json& j, std::string_view name, const HistogramSnapshot& h) {
  j.key(name).begin_obj();
  j.field("count", h.count)
      .field("sum_ns", h.sum_ns)
      .field("max_ns", h.max_ns)
      .field("mean_ns", h.mean_ns)
      .field("p50_ns", h.p50_ns)
      .field("p95_ns", h.p95_ns)
      .field("p99_ns", h.p99_ns)
      .field("p999_ns", h.p999_ns);
  // Sparse (bucket index, count) pairs; validate_json cross-checks their
  // sum against "count" so a truncated/mutated export fails validation.
  j.key("buckets").begin_arr();
  for (const auto& [bucket, count] : h.buckets) {
    j.begin_arr().value(u64{bucket}).value(count).end_arr();
  }
  j.end_arr();
  j.end_obj();
}

// --------------------------------------------------------------------------
// Prometheus helpers.

/// Escape a label value per the exposition format: backslash, double
/// quote and newline must be escaped inside the quoted value or a
/// hostile source string (e.g. a map path) breaks the line structure.
std::string prom_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void prom_help(std::string& out, std::string_view prefix, std::string_view name,
               std::string_view help) {
  out += "# HELP ";
  out += prefix;
  out += name;
  out += ' ';
  out += help;
  out += '\n';
}

void prom_line(std::string& out, std::string_view prefix, std::string_view name,
               std::string_view labels, double v) {
  out += prefix;
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
  out += '\n';
}

void prom_counter(std::string& out, std::string_view prefix, std::string_view name,
                  std::string_view labels, u64 v, std::string_view help) {
  prom_help(out, prefix, name, help);
  out += "# TYPE ";
  out += prefix;
  out += name;
  out += " counter\n";
  prom_line(out, prefix, name, labels, static_cast<double>(v));
}

void prom_histogram(std::string& out, std::string_view prefix, std::string_view base,
                    std::string_view labels, const HistogramSnapshot& h,
                    std::string_view help = "per-operation latency summary (ns)") {
  prom_help(out, prefix, base, help);
  out += "# TYPE ";
  out += prefix;
  out += base;
  out += " summary\n";
  const std::string lp(labels);
  const auto with_q = [&](const char* q) {
    return lp.empty() ? std::string("quantile=\"") + q + "\""
                      : lp + ",quantile=\"" + q + "\"";
  };
  prom_line(out, prefix, base, with_q("0.5"), h.p50_ns);
  prom_line(out, prefix, base, with_q("0.95"), h.p95_ns);
  prom_line(out, prefix, base, with_q("0.99"), h.p99_ns);
  prom_line(out, prefix, base, with_q("0.999"), h.p999_ns);
  prom_line(out, prefix, std::string(base) + "_count", lp, static_cast<double>(h.count));
  prom_line(out, prefix, std::string(base) + "_sum", lp, static_cast<double>(h.sum_ns));
  prom_line(out, prefix, std::string(base) + "_max", lp, static_cast<double>(h.max_ns));
}

// --------------------------------------------------------------------------
// The snapshot's field table: one row per scalar field of a Snapshot. It
// drives export_json, export_prometheus and the validator's list of
// top-level keys, so a field added here reaches all three at once.

/// Sections of a snapshot document, in the order export_json writes
/// them. kTop holds the fields written at the top level itself.
enum class Section : u8 {
  kTop, kPersist, kOps, kScrub, kContention, kLifecycle,
  kMigration, kLatency, kPhases, kTimeseries, kFlight, kPerShard,
};

/// The JSON key of each section, indexed by Section.
constexpr std::string_view kSectionKeys[] = {
    "",          "persist", "ops",    "scrub",      "contention", "lifecycle",
    "migration", "latency", "phases", "timeseries", "flight",     "per_shard",
};

using Value = std::variant<u64, double, bool, std::string_view>;

/// `json` is the field's key inside its section (empty: Prometheus only);
/// `prom` and `help` name its Prometheus counter (empty: JSON only).
struct Field {
  Section section;
  std::string_view json;
  std::string_view prom;
  std::string_view help;
  Value (*get)(const Snapshot&);
};

#define GH_FIELD(expr) []([[maybe_unused]] const Snapshot& s) -> Value { return (expr); }

// Rows are in Prometheus order. export_json writes each section's rows in
// table order, sections in Section order, so only the order of rows
// within one section shows in the JSON. The two Prometheus-only rows are
// what that leaves: bytes_written_total follows fences_total, and the
// in-flight count (an array in the JSON) precedes records_torn.
constexpr Field kFields[] = {
    {Section::kTop, "schema", "", "", GH_FIELD(std::string_view(kSnapshotSchema))},
    {Section::kTop, "version", "", "", GH_FIELD(u64{s.version})},
    {Section::kTop, "source", "", "", GH_FIELD(std::string_view(s.source))},
    {Section::kTop, "size", "size", "live keys in the table", GH_FIELD(s.size)},
    {Section::kTop, "capacity", "capacity", "total cell capacity", GH_FIELD(s.capacity)},
    {Section::kTop, "load_factor", "", "", GH_FIELD(s.load_factor)},
    {Section::kTop, "shards", "", "", GH_FIELD(u64{s.shards})},

    {Section::kOps, "inserts", "inserts_total", "insert operations attempted",
     GH_FIELD(s.table.inserts)},
    {Section::kOps, "insert_failures", "insert_failures_total",
     "inserts that found no free cell", GH_FIELD(s.table.insert_failures)},
    {Section::kOps, "queries", "queries_total", "find operations attempted",
     GH_FIELD(s.table.queries)},
    {Section::kOps, "query_hits", "", "", GH_FIELD(s.table.query_hits)},
    {Section::kOps, "erases", "erases_total", "erase operations attempted",
     GH_FIELD(s.table.erases)},
    {Section::kOps, "erase_hits", "", "", GH_FIELD(s.table.erase_hits)},
    {Section::kOps, "probes", "probes_total", "cells examined across all operations",
     GH_FIELD(s.table.probes)},
    {Section::kOps, "level2_probes", "", "", GH_FIELD(s.table.level2_probes)},
    {Section::kOps, "displacements", "", "", GH_FIELD(s.table.displacements)},
    {Section::kOps, "stash_probes", "", "", GH_FIELD(s.table.stash_probes)},
    {Section::kOps, "backward_shifts", "", "", GH_FIELD(s.table.backward_shifts)},
    {Section::kOps, "tag_probes", "tag_probes_total",
     "tag-matched cells whose full key was compared", GH_FIELD(s.table.tag_probes)},
    {Section::kOps, "tag_skips", "tag_skips_total",
     "cells skipped by the fingerprint-tag filter", GH_FIELD(s.table.tag_skips)},
    {Section::kOps, "tag_false_positives", "tag_false_positives_total",
     "tag matches whose key compare missed", GH_FIELD(s.table.tag_false_positives)},
    {Section::kOps, "batch_ops", "batch_ops_total", "batched multi-op calls",
     GH_FIELD(s.table.batch_ops)},
    {Section::kOps, "batch_keys", "batch_keys_total",
     "keys submitted through batched multi-op calls", GH_FIELD(s.table.batch_keys)},
    {Section::kOps, "prefetches_issued", "prefetches_issued_total",
     "software prefetches issued by batched lookups", GH_FIELD(s.table.prefetches_issued)},

    {Section::kPersist, "stores", "", "", GH_FIELD(s.persist.stores)},
    {Section::kPersist, "bytes_written", "", "", GH_FIELD(s.persist.bytes_written)},
    {Section::kPersist, "atomic_stores", "", "", GH_FIELD(s.persist.atomic_stores)},
    {Section::kPersist, "persist_calls", "persist_calls_total",
     "persist() calls issued to the PM policy", GH_FIELD(s.persist.persist_calls)},
    {Section::kPersist, "lines_flushed", "lines_flushed_total", "cache lines flushed to NVM",
     GH_FIELD(s.persist.lines_flushed)},
    {Section::kPersist, "fences", "fences_total", "store fences issued",
     GH_FIELD(s.persist.fences)},
    {Section::kPersist, "", "bytes_written_total", "bytes written through the PM policy",
     GH_FIELD(s.persist.bytes_written)},
    {Section::kPersist, "delay_ns", "", "", GH_FIELD(s.persist.delay_ns)},

    {Section::kScrub, "groups_scrubbed", "scrub_groups_total",
     "group checksum verifications run", GH_FIELD(s.scrub.groups_scrubbed)},
    {Section::kScrub, "cells_scrubbed", "", "", GH_FIELD(s.scrub.cells_scrubbed)},
    {Section::kScrub, "crc_mismatches", "crc_mismatches_total",
     "group checksum failures detected", GH_FIELD(s.scrub.crc_mismatches)},
    {Section::kScrub, "groups_quarantined", "", "", GH_FIELD(s.scrub.groups_quarantined)},
    {Section::kScrub, "cells_lost", "cells_lost_total",
     "occupied cells dropped as unrecoverable", GH_FIELD(s.scrub.cells_lost)},
    {Section::kScrub, "media_errors", "", "", GH_FIELD(s.scrub.media_errors)},
    {Section::kScrub, "open_groups_checked", "", "", GH_FIELD(s.scrub.open_groups_checked)},
    {Section::kScrub, "open_crc_mismatches", "", "", GH_FIELD(s.scrub.open_crc_mismatches)},
    {Section::kScrub, "open_cells_lost", "", "", GH_FIELD(s.scrub.open_cells_lost)},

    {Section::kContention, "read_retries", "read_retries_total", "optimistic read retries",
     GH_FIELD(s.contention.read_retries)},
    {Section::kContention, "read_fallbacks", "read_fallbacks_total",
     "optimistic reads that fell back to the lock", GH_FIELD(s.contention.read_fallbacks)},
    {Section::kContention, "writer_waits", "writer_waits_total",
     "writer lock acquisitions that waited", GH_FIELD(s.contention.writer_waits)},

    {Section::kLifecycle, "expansions", "expansions_total", "table expansions completed",
     GH_FIELD(s.lifecycle.expansions)},
    {Section::kLifecycle, "expand_failures", "", "", GH_FIELD(s.lifecycle.expand_failures)},
    {Section::kLifecycle, "compactions", "", "", GH_FIELD(s.lifecycle.compactions)},
    {Section::kLifecycle, "compact_failures", "", "", GH_FIELD(s.lifecycle.compact_failures)},
    {Section::kLifecycle, "recoveries", "recoveries_total", "crash recovery passes run",
     GH_FIELD(s.lifecycle.recoveries)},
    {Section::kLifecycle, "orphans_reclaimed", "", "",
     GH_FIELD(s.lifecycle.orphans_reclaimed)},
    {Section::kLifecycle, "degraded", "", "", GH_FIELD(s.lifecycle.degraded)},
    {Section::kLifecycle, "expand_backoff", "", "", GH_FIELD(s.lifecycle.expand_backoff)},
    {Section::kLifecycle, "expand_cooldown", "expand_cooldown",
     "ops left before a pending expansion is retried (gauge)",
     GH_FIELD(s.lifecycle.expand_cooldown)},

    {Section::kMigration, "active", "migration_active",
     "online-resize migrations currently in progress (gauge)", GH_FIELD(s.migration.active)},
    {Section::kMigration, "cursor", "migration_cursor",
     "next source group the active migration will move (gauge)", GH_FIELD(s.migration.cursor)},
    {Section::kMigration, "total_groups", "", "", GH_FIELD(s.migration.total_groups)},
    {Section::kMigration, "groups_migrated", "migration_groups_total",
     "source groups migrated by online resizes", GH_FIELD(s.migration.groups_migrated)},
    {Section::kMigration, "keys_migrated", "migration_keys_total",
     "keys moved by online resizes", GH_FIELD(s.migration.keys_migrated)},
    {Section::kMigration, "started", "migrations_started_total",
     "online-resize migrations started", GH_FIELD(s.migration.started)},
    {Section::kMigration, "completed", "migrations_completed_total",
     "online-resize migrations finalized", GH_FIELD(s.migration.completed)},
    {Section::kMigration, "resumed", "migrations_resumed_total",
     "migrations resumed from a durable cursor on open", GH_FIELD(s.migration.resumed)},
    {Section::kMigration, "help_steps", "", "", GH_FIELD(s.migration.help_steps)},
    {Section::kMigration, "bg_steps", "", "", GH_FIELD(s.migration.bg_steps)},

    {Section::kTimeseries, "windows", "", "", GH_FIELD(s.timeseries.windows)},
    {Section::kTimeseries, "interval_ms", "", "", GH_FIELD(s.timeseries.interval_ms)},
    {Section::kTimeseries, "last_window_ms", "", "", GH_FIELD(s.timeseries.last_window_ms)},
    {Section::kTimeseries, "last_qps", "", "", GH_FIELD(s.timeseries.last_qps)},
    {Section::kTimeseries, "last_p99_ns", "", "", GH_FIELD(s.timeseries.last_p99_ns)},

    {Section::kFlight, "enabled", "", "", GH_FIELD(s.flight.enabled)},
    {Section::kFlight, "records_scanned", "", "", GH_FIELD(s.flight.records_scanned)},
    {Section::kFlight, "", "flight_in_flight_on_open_total",
     "ops the flight recorder showed in flight at the last crash",
     GH_FIELD(u64{s.flight.in_flight_on_open.size()})},
    {Section::kFlight, "records_torn", "flight_records_torn_total",
     "torn flight records found on open (protocol violation)",
     GH_FIELD(s.flight.records_torn)},
};

#undef GH_FIELD

void write_fields(Json& j, const Snapshot& s, Section section) {
  for (const Field& f : kFields) {
    if (f.section != section || f.json.empty()) continue;
    std::visit([&](auto v) { j.field(f.json, v); }, f.get(s));
  }
}

void write_latency(Json& j, const OpLatencySnapshot& lat) {
  j.begin_obj();
  for (usize k = 0; k < kOpKinds; ++k) {
    const auto kind = static_cast<OpKind>(k);
    write_histogram(j, op_kind_name(kind), lat.of(kind));
  }
  j.end_obj();
}

/// Per-phase attribution: one object per OpKind that saw samples.
void write_phases(Json& j, const PhaseSnapshot& phases) {
  j.begin_obj();
  for (usize k = 0; k < kOpKinds; ++k) {
    const PhaseSnapshot::Row& r = phases.rows[k];
    if (r.samples == 0 && r.op_ns == 0) continue;
    j.key(op_kind_name(static_cast<OpKind>(k))).begin_obj();
    j.field("samples", r.samples).field("op_ns", r.op_ns);
    for (usize p = 0; p < kPhases; ++p) {
      j.field(std::string(phase_name(static_cast<Phase>(p))) + "_ns", r.phase_ns[p]);
    }
    j.end_obj();
  }
  j.end_obj();
}

void write_in_flight(Json& j, const std::vector<FlightOpBrief>& ops) {
  j.key("in_flight").begin_arr();
  for (const FlightOpBrief& op : ops) {
    j.begin_obj();
    j.field("kind", op_kind_name(op.kind))
        .field("phase", flight_phase_name(op.phase))
        .field("seqno", op.seqno)
        .field("key_hash", op.key_hash);
    j.end_obj();
  }
  j.end_arr();
}

void write_per_shard(Json& j, const std::vector<ShardBrief>& shards) {
  j.begin_arr();
  for (const ShardBrief& sh : shards) {
    j.begin_obj();
    j.field("shard", u64{sh.shard})
        .field("size", sh.size)
        .field("capacity", sh.capacity)
        .field("read_retries", sh.contention.read_retries)
        .field("read_fallbacks", sh.contention.read_fallbacks)
        .field("writer_waits", sh.contention.writer_waits)
        .field("expansions", sh.expansions)
        .field("degraded", sh.degraded);
    j.end_obj();
  }
  j.end_arr();
}

}  // namespace

std::string export_json(const Snapshot& s) {
  std::string out;
  out.reserve(2048);
  Json j(out);
  j.begin_obj();
  write_fields(j, s, Section::kTop);
  for (usize i = 1; i < std::size(kSectionKeys); ++i) {
    const auto section = static_cast<Section>(i);
    j.key(kSectionKeys[i]);
    switch (section) {
      case Section::kLatency: write_latency(j, s.latency); break;
      case Section::kPhases: write_phases(j, s.phases); break;
      case Section::kPerShard: write_per_shard(j, s.per_shard); break;
      default:
        j.begin_obj();
        write_fields(j, s, section);
        if (section == Section::kFlight) write_in_flight(j, s.flight.in_flight_on_open);
        j.end_obj();
    }
  }
  j.end_obj();
  return out;
}

std::string export_prometheus(const Snapshot& s, std::string_view prefix) {
  std::string out;
  out.reserve(2048);
  const std::string labels = "source=\"" + prom_label_value(s.source) + "\"";
  for (const Field& f : kFields) {
    if (f.prom.empty()) continue;
    prom_counter(out, prefix, f.prom, labels, std::get<u64>(f.get(s)), f.help);
  }
  for (usize k = 0; k < kOpKinds; ++k) {
    const auto kind = static_cast<OpKind>(k);
    prom_histogram(out, prefix,
                   std::string("op_") + op_kind_name(kind) + "_latency_ns", labels,
                   s.latency.of(kind));
  }
  bool phase_header_written = false;
  for (usize k = 0; k < kOpKinds; ++k) {
    const PhaseSnapshot::Row& r = s.phases.rows[k];
    if (r.samples == 0 && r.op_ns == 0) continue;
    if (!phase_header_written) {
      prom_help(out, prefix, "phase_ns_total",
                "attributed time per op kind and phase (sampled)");
      out += "# TYPE ";
      out += prefix;
      out += "phase_ns_total counter\n";
      phase_header_written = true;
    }
    const std::string op = op_kind_name(static_cast<OpKind>(k));
    for (usize p = 0; p < kPhases; ++p) {
      const std::string phase_labels = labels + ",op=\"" + op + "\",phase=\"" +
                                       phase_name(static_cast<Phase>(p)) + "\"";
      prom_line(out, prefix, "phase_ns_total", phase_labels,
                static_cast<double>(r.phase_ns[p]));
    }
  }
  return out;
}

// --------------------------------------------------------------------------
// Minimal JSON structural validator.

namespace {

/// Top-level keys a "gh.obs.snapshot.v1" document may carry: the section
/// keys and the top-level fields of the field table. Anything else is a
/// mutated or forged document and fails validation.
bool known_snapshot_key(std::string_view key) {
  for (const std::string_view k : kSectionKeys) {
    if (!k.empty() && k == key) return true;
  }
  for (const Field& f : kFields) {
    if (f.section == Section::kTop && f.json == key) return true;
  }
  return false;
}

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool run(std::string* error) {
    skip_ws();
    const bool ok = value() && (skip_ws(), pos_ == s_.size());
    if (!ok && error != nullptr) {
      *error = err_.empty() ? "trailing characters at offset " + std::to_string(pos_)
                            : err_ + " at offset " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  bool fail(const char* what) {
    if (err_.empty()) err_ = what;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return fail("bad literal");
    pos_ += lit.size();
    last_ = Last::kOther;
    return true;
  }

  bool string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected string");
    const usize start = ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return fail("bad escape");
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    // Raw (escapes unprocessed) — only compared against escape-free
    // schema constants and key names.
    last_string_ = s_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    last_ = Last::kString;
    return true;
  }

  bool number() {
    const usize start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    last_number_ = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
    last_ = Last::kNumber;
    return true;
  }

  bool value() {
    if (++depth_ > 64) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    bool ok = false;
    switch (s_[pos_]) {
      case '{': ok = object(); break;
      case '[': ok = array(); break;
      case '"': ok = string(); break;
      case 't': ok = literal("true"); break;
      case 'f': ok = literal("false"); break;
      case 'n': ok = literal("null"); break;
      default: ok = number();
    }
    --depth_;
    return ok;
  }

  /// Sum the count halves of a validated "buckets" value — an array of
  /// [bucket, count] pairs. Structure other than pairs-of-numbers fails.
  bool sum_buckets(std::string_view text, double* out) {
    JsonChecker inner(text);
    inner.skip_ws();
    if (inner.pos_ >= text.size() || text[inner.pos_] != '[') return false;
    ++inner.pos_;
    inner.skip_ws();
    double sum = 0;
    if (inner.pos_ < text.size() && text[inner.pos_] == ']') {
      *out = 0;
      return true;
    }
    for (;;) {
      inner.skip_ws();
      if (inner.pos_ >= text.size() || text[inner.pos_] != '[') return false;
      ++inner.pos_;
      inner.skip_ws();
      if (!inner.number()) return false;
      inner.skip_ws();
      if (inner.pos_ >= text.size() || text[inner.pos_] != ',') return false;
      ++inner.pos_;
      inner.skip_ws();
      if (!inner.number()) return false;
      sum += inner.last_number_;
      inner.skip_ws();
      if (inner.pos_ >= text.size() || text[inner.pos_] != ']') return false;
      ++inner.pos_;
      inner.skip_ws();
      if (inner.pos_ < text.size() && text[inner.pos_] == ',') {
        ++inner.pos_;
        continue;
      }
      break;
    }
    *out = sum;
    return true;
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    const bool top_level = depth_ == 1;
    bool has_count = false, has_buckets = false;
    double count = 0, bucket_sum = 0;
    bool buckets_well_formed = true;
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      const std::string key(last_string_);
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      const usize value_start = (skip_ws(), pos_);
      if (!value()) return false;
      if (top_level && key == "schema" && last_ == Last::kString) {
        schema_ = last_string_;
      }
      if (top_level && !known_snapshot_key(key)) top_level_unknown_ = true;
      if (key == "count" && last_ == Last::kNumber) {
        has_count = true;
        count = last_number_;
      } else if (key == "buckets") {
        has_buckets = true;
        buckets_well_formed =
            sum_buckets(s_.substr(value_start, pos_ - value_start), &bucket_sum);
      }
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        break;
      }
      return fail("expected ',' or '}'");
    }
    // A histogram object must be internally consistent: the sparse
    // buckets account for every sample "count" claims.
    if (has_count && has_buckets) {
      if (!buckets_well_formed) return fail("malformed histogram buckets");
      if (count != bucket_sum) return fail("histogram bucket counts do not sum to count");
    }
    // Only enforce the key whitelist for documents that claim to be
    // snapshots — foreign JSON still gets the plain structural check.
    if (top_level && schema_ == kSnapshotSchema && top_level_unknown_) {
      return fail("unknown top-level key in snapshot document");
    }
    last_ = Last::kOther;
    return true;
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      last_ = Last::kOther;
      return true;
    }
    for (;;) {
      if (!value()) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        last_ = Last::kOther;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  enum class Last { kNone, kNumber, kString, kOther };

  std::string_view s_;
  usize pos_ = 0;
  int depth_ = 0;
  std::string err_;
  Last last_ = Last::kNone;
  double last_number_ = 0;
  std::string_view last_string_;
  std::string_view schema_;
  bool top_level_unknown_ = false;
};

}  // namespace

bool validate_json(std::string_view text, std::string* error) {
  return JsonChecker(text).run(error);
}

}  // namespace gh::obs
