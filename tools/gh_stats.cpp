// gh_stats — attach to a GroupHashMap file and dump one unified
// observability snapshot (the obs::Snapshot API this tool exists to
// exercise end to end).
//
//   gh_stats <file.gh> [--format=json|prom|text]
//   gh_stats --flight <file.flight> [--spans=file.spans] [--trace=out.json]
//   gh_stats --spans=<file.spans> [--trace=out.json]
//   gh_stats --selftest [--format=json|prom|text] [--keep]
//
// --flight scans a flight-recorder sidecar offline (no map open): prints
// the crash-forensics timeline, and with --trace=<out> also writes a
// Chrome trace-event JSON (chrome://tracing, Perfetto) of the records.
//
// --spans reads a span file written by gh_serve --spans-out. Combined
// with --flight, both sources land in ONE trace JSON on a shared time
// axis (they record the same TSC domain), so a request's spans line up
// against the map-level flight records under chrome://tracing.
//
// --selftest is the CI smoke path: build a temporary map, write through
// it, close, reopen, snapshot, export, and validate the JSON against the
// schema marker — exit 0 only if every step holds. --keep leaves the
// temporary map (and its .flight sidecar) behind for follow-up steps.
//
// Exit codes: 0 ok, 1 snapshot/schema check failed, 2 usage/IO error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/group_hash_map.hpp"
#include "core/inspect.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

namespace {

void print_histogram_row(const char* name, const gh::obs::HistogramSnapshot& h) {
  if (h.count == 0) return;
  std::printf("  %-8s count=%-10s p50=%-10s p95=%-10s p99=%-10s max=%s\n", name,
              gh::format_count(h.count).c_str(), gh::format_ns(h.p50_ns).c_str(),
              gh::format_ns(h.p95_ns).c_str(), gh::format_ns(h.p99_ns).c_str(),
              gh::format_ns(static_cast<double>(h.max_ns)).c_str());
}

void print_text(const gh::obs::Snapshot& s) {
  std::printf("source          %s (schema v%u)\n", s.source.c_str(), s.version);
  std::printf("size            %s / %s cells (load %s)\n", gh::format_count(s.size).c_str(),
              gh::format_count(s.capacity).c_str(),
              gh::format_double(s.load_factor, 3).c_str());
  std::printf("persist         stores=%s lines_flushed=%s fences=%s delay=%s\n",
              gh::format_count(s.persist.stores).c_str(),
              gh::format_count(s.persist.lines_flushed).c_str(),
              gh::format_count(s.persist.fences).c_str(),
              gh::format_ns(static_cast<double>(s.persist.delay_ns)).c_str());
  std::printf("table ops       inserts=%s queries=%s erases=%s probes=%s\n",
              gh::format_count(s.table.inserts).c_str(),
              gh::format_count(s.table.queries).c_str(),
              gh::format_count(s.table.erases).c_str(),
              gh::format_count(s.table.probes).c_str());
  std::printf("integrity       scrubbed=%s crc_mismatches=%s quarantined=%s lost=%s\n",
              gh::format_count(s.scrub.groups_scrubbed).c_str(),
              gh::format_count(s.scrub.crc_mismatches).c_str(),
              gh::format_count(s.scrub.groups_quarantined).c_str(),
              gh::format_count(s.scrub.cells_lost).c_str());
  std::printf("lifecycle       expansions=%s compactions=%s recoveries=%s degraded=%s\n",
              gh::format_count(s.lifecycle.expansions).c_str(),
              gh::format_count(s.lifecycle.compactions).c_str(),
              gh::format_count(s.lifecycle.recoveries).c_str(),
              s.lifecycle.degraded ? "yes" : "no");
  if (s.lifecycle.expand_failures != 0 || s.lifecycle.expand_backoff != 0) {
    std::printf("expand backoff  failures=%s backoff=%s cooldown=%s\n",
                gh::format_count(s.lifecycle.expand_failures).c_str(),
                gh::format_count(s.lifecycle.expand_backoff).c_str(),
                gh::format_count(s.lifecycle.expand_cooldown).c_str());
  }
  if (s.migration.started != 0 || s.migration.completed != 0 || s.migration.resumed != 0 ||
      s.migration.active != 0) {
    std::printf("migration       started=%s completed=%s resumed=%s\n",
                gh::format_count(s.migration.started).c_str(),
                gh::format_count(s.migration.completed).c_str(),
                gh::format_count(s.migration.resumed).c_str());
    std::printf("                groups=%s keys=%s help_steps=%s bg_steps=%s\n",
                gh::format_count(s.migration.groups_migrated).c_str(),
                gh::format_count(s.migration.keys_migrated).c_str(),
                gh::format_count(s.migration.help_steps).c_str(),
                gh::format_count(s.migration.bg_steps).c_str());
    if (s.migration.active != 0) {
      std::printf("                ACTIVE: cursor=%s / %s source groups\n",
                  gh::format_count(s.migration.cursor).c_str(),
                  gh::format_count(s.migration.total_groups).c_str());
    }
  }
  if (s.shards != 0) {
    std::printf("contention      retries=%s fallbacks=%s writer_waits=%s (%zu shards)\n",
                gh::format_count(s.contention.read_retries).c_str(),
                gh::format_count(s.contention.read_fallbacks).c_str(),
                gh::format_count(s.contention.writer_waits).c_str(), s.shards);
  }
  std::printf("latency\n");
  print_histogram_row("insert", s.latency.insert);
  print_histogram_row("find", s.latency.find);
  print_histogram_row("erase", s.latency.erase);
  print_histogram_row("expand", s.latency.expand);
  print_histogram_row("scrub", s.latency.scrub);
  print_histogram_row("recover", s.latency.recover);
  print_histogram_row("compact", s.latency.compact);
  print_histogram_row("migrate", s.latency.migrate);
  bool phases_header = false;
  for (gh::usize k = 0; k < gh::obs::kOpKinds; ++k) {
    const auto& row = s.phases.rows[k];
    if (row.samples == 0 && row.op_ns == 0) continue;
    if (!phases_header) {
      std::printf("phases          (share of attributed time per op kind)\n");
      phases_header = true;
    }
    const auto kind = static_cast<gh::obs::OpKind>(k);
    std::printf("  %-8s", gh::obs::op_kind_name(kind));
    for (gh::usize p = 0; p < gh::obs::kPhases; ++p) {
      std::printf(" %s=%.1f%%", gh::obs::phase_name(static_cast<gh::obs::Phase>(p)),
                  100.0 * s.phases.share(kind, static_cast<gh::obs::Phase>(p)));
    }
    std::printf("\n");
  }
}

int emit(const gh::obs::Snapshot& s, const std::string& format) {
  if (format == "json") {
    const std::string text = gh::obs::export_json(s);
    std::string error;
    if (!gh::obs::validate_json(text, &error)) {
      std::fprintf(stderr, "gh_stats: produced invalid JSON: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s\n", text.c_str());
  } else if (format == "prom") {
    std::printf("%s", gh::obs::export_prometheus(s).c_str());
  } else if (format == "text") {
    print_text(s);
  } else {
    std::fprintf(stderr, "gh_stats: unknown --format=%s (json|prom|text)\n",
                 format.c_str());
    return 2;
  }
  return 0;
}

template <class Map>
int dump(const std::string& path, const std::string& format) {
  Map map = Map::open(path);
  return emit(map.snapshot(), format);
}

int write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "gh_stats: cannot write %s\n", path.c_str());
    return 2;
  }
  out << body;
  return 0;
}

/// Spans-only view: summary to stdout, optional Chrome trace JSON.
int dump_spans(const std::string& spans_path, const std::string& trace_path) {
  const gh::obs::SpanFile f = gh::obs::read_spans_file(spans_path);
  if (!f.valid) {
    std::fprintf(stderr, "gh_stats: %s is not a valid span file\n", spans_path.c_str());
    return 1;
  }
  std::printf("spans: %zu records, base_ticks=%llu, ticks_per_ns=%.3f\n",
              f.spans.size(), static_cast<unsigned long long>(f.base_ticks),
              f.ticks_per_ns);
  gh::u64 per_kind[gh::obs::kSpanKinds] = {};
  for (const gh::obs::SpanRecord& s : f.spans) {
    if (s.kind < gh::obs::kSpanKinds) per_kind[s.kind]++;
  }
  for (gh::usize k = 0; k < gh::obs::kSpanKinds; ++k) {
    if (per_kind[k] == 0) continue;
    std::printf("  %-12s %s\n",
                gh::obs::span_kind_name(static_cast<gh::obs::SpanKind>(k)),
                gh::format_count(per_kind[k]).c_str());
  }
  if (trace_path.empty()) return 0;
  std::vector<gh::obs::TraceEvent> events;
  gh::obs::append_span_trace_events(f.spans, f.ticks_per_ns, f.base_ticks, events);
  const int rc = write_text_file(trace_path, gh::obs::render_trace_json(std::move(events)));
  if (rc == 0) std::fprintf(stderr, "gh_stats: wrote trace to %s\n", trace_path.c_str());
  return rc;
}

/// Offline flight-sidecar scan: timeline to stdout, optional Chrome
/// trace JSON to `trace_path`. Works without opening (or consuming) the
/// map the sidecar belongs to. A non-empty `spans_path` merges that span
/// file's records into the same trace on a shared time axis (both
/// sources record raw TSC).
int dump_flight(const std::string& path, const std::string& trace_path,
                const std::string& spans_path = "") {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "gh_stats: cannot read %s\n", path.c_str());
    return 2;
  }
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const gh::obs::FlightScan scan = gh::obs::scan_flight(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(raw.data()),
                                 raw.size()));
  if (!scan.valid_header) {
    std::fprintf(stderr, "gh_stats: %s is not a valid flight sidecar\n", path.c_str());
    return 1;
  }
  std::printf("%s", gh::obs::flight_timeline_text(scan).c_str());
  gh::obs::SpanFile spans;
  if (!spans_path.empty()) {
    spans = gh::obs::read_spans_file(spans_path);
    if (!spans.valid) {
      std::fprintf(stderr, "gh_stats: %s is not a valid span file\n", spans_path.c_str());
      return 1;
    }
    std::printf("spans: merging %zu records from %s\n", spans.spans.size(),
                spans_path.c_str());
  }
  if (!trace_path.empty()) {
    std::vector<gh::obs::TraceEvent> events;
    if (spans.valid && !spans.spans.empty()) {
      // Anchor both sources at the earliest tick either one saw.
      gh::u64 base = spans.base_ticks;
      for (const gh::obs::FlightRecordView& r : scan.records) {
        if (base == 0 || r.tsc < base) base = r.tsc;
      }
      gh::obs::append_flight_trace_events(scan, events, base);
      gh::obs::append_span_trace_events(spans.spans, spans.ticks_per_ns, base, events);
    } else {
      gh::obs::append_flight_trace_events(scan, events);
    }
    const int rc =
        write_text_file(trace_path, gh::obs::render_trace_json(std::move(events)));
    if (rc != 0) return rc;
    std::fprintf(stderr, "gh_stats: wrote trace to %s\n", trace_path.c_str());
  }
  return 0;
}

/// CI smoke: create → write → close → reopen → snapshot → export →
/// validate. Returns 0 only when the snapshot carries what the writes
/// implied and the JSON passes the structural check.
int selftest(const std::string& format, bool keep) {
  const std::string path = std::string(std::getenv("TMPDIR") ? std::getenv("TMPDIR") : "/tmp") +
                           "/gh_stats_selftest.gh";
  const std::string flight_path = path + ".flight";
  std::remove(path.c_str());
  std::remove(flight_path.c_str());
  constexpr gh::u64 kKeys = 2000;
  gh::u64 total = kKeys;
  std::vector<gh::u64> routed;  // keys put on either side of the parked cursor
  {
    // kFull flight mode: every op leaves a record, so the sidecar scan
    // below is deterministic regardless of the sampling shift. Start the
    // map 256 cells deep, draining one group per op: the 2000 puts force
    // several incremental migrations, so the snapshot's migration
    // section and the sidecar's migrate phase records are exercised by
    // the same smoke run CI greps. Then put until a migration is live
    // and close mid-drain: the reopen below must resume from the
    // durable cursor, and the sidecar scan must name the parked
    // migration and its cursor.
    auto map = gh::GroupHashMap::create(path, {.initial_cells = 256,
                                               .flight_mode = gh::obs::FlightMode::kFull,
                                               .migrate_groups_per_op = 1});
    for (gh::u64 k = 1; k <= kKeys; ++k) map.put(k, k * 3);
    while (!map.migration_active()) {
      ++total;
      map.put(total, total * 3);
    }
    // Put new keys on both sides of the cursor while the resize runs:
    // below it they go to the target, above it ahead of their group's
    // copy. Each put drains one more group; stop well before the end.
    const gh::u64 groups = map.raw_table().num_groups();
    gh::u64 below = 0;
    gh::u64 above = 0;
    for (gh::u64 k = total + 1; (below < 4 || above < 4) && map.migration_cursor() + 2 < groups;
         ++k) {
      const gh::u64 home_group = map.raw_table().home_index(k) / map.raw_table().group_size();
      gh::u64& side = home_group < map.migration_cursor() ? below : above;
      if (side == 4) continue;
      map.put(k, k * 3);
      routed.push_back(k);
      side++;
    }
    if (below == 0 || above == 0) {
      std::fprintf(stderr, "gh_stats: selftest could not put keys on both sides of the cursor\n");
      return 1;
    }
    const gh::obs::Snapshot live = map.snapshot();
    // Latency histograms are sampled (1 in 2^6 ops by default), so the
    // count is ~kKeys/64 — just demand a nonzero sample set.
    if (live.size != total + routed.size() || live.persist.lines_flushed == 0 ||
        (gh::obs::kEnabled && live.latency.insert.count == 0)) {
      std::fprintf(stderr, "gh_stats: live snapshot inconsistent (size=%llu)\n",
                   static_cast<unsigned long long>(live.size));
      return 1;
    }
    if (live.migration.started == 0 || live.migration.active != 1) {
      std::fprintf(stderr, "gh_stats: selftest never resized online\n");
      return 1;
    }
  }
  if (gh::obs::kEnabled) {
    // Scan the sidecar BEFORE reopening (the reopen hands the rings to a
    // fresh session): the timeline must carry the migrate phase records
    // and the in-flight reconstruction must name the resume cursor of
    // the migration we just parked.
    std::ifstream fin(flight_path, std::ios::binary);
    std::vector<char> raw((std::istreambuf_iterator<char>(fin)),
                          std::istreambuf_iterator<char>());
    const gh::obs::FlightScan scan = gh::obs::scan_flight(
        std::span<const std::byte>(reinterpret_cast<const std::byte*>(raw.data()),
                                   raw.size()));
    const std::string timeline = gh::obs::flight_timeline_text(scan);
    std::printf("%s", timeline.c_str());
    if (!scan.valid_header || timeline.find("migrate") == std::string::npos ||
        timeline.find("resume cursor") == std::string::npos) {
      std::fprintf(stderr, "gh_stats: sidecar timeline missing the parked migration\n");
      return 1;
    }
  }
  auto map = gh::GroupHashMap::open(path);
  // The open resumed the parked migration from its durable cursor; drain
  // it the way a maintenance tick would.
  while (map.migration_active()) map.migrate_step(64);
  const gh::obs::Snapshot s = map.snapshot();
  bool all_read_back = s.size == total + routed.size();
  for (gh::u64 k = 1; k <= total; ++k) all_read_back &= map.get(k) == k * 3;
  for (const gh::u64 k : routed) all_read_back &= map.get(k) == k * 3;
  if (!all_read_back) {
    std::fprintf(stderr, "gh_stats: reopened snapshot lost keys\n");
    return 1;
  }
  if (s.migration.resumed != 1 || s.migration.completed != 1) {
    std::fprintf(stderr, "gh_stats: reopen did not resume the parked migration\n");
    return 1;
  }
  const std::string json = gh::obs::export_json(s);
  std::string error;
  if (!gh::obs::validate_json(json, &error)) {
    std::fprintf(stderr, "gh_stats: selftest JSON invalid: %s\n", error.c_str());
    return 1;
  }
  if (json.find(gh::obs::kSnapshotSchema) == std::string::npos ||
      json.find("\"persist\"") == std::string::npos ||
      json.find("\"latency\"") == std::string::npos ||
      json.find("\"migration\"") == std::string::npos) {
    std::fprintf(stderr, "gh_stats: selftest JSON missing required keys\n%s\n", json.c_str());
    return 1;
  }
  if (gh::obs::export_prometheus(s).find("gh_size") == std::string::npos) {
    std::fprintf(stderr, "gh_stats: prometheus export missing gh_size\n");
    return 1;
  }
  // Flight sidecar invariants: present with a valid header and no torn
  // records when observability is compiled in; never created under
  // GH_OBS_OFF (the CI obs-off lane asserts the same from the outside).
  std::error_code ec;
  if (std::filesystem::exists(flight_path, ec) != gh::obs::kEnabled) {
    std::fprintf(stderr, "gh_stats: flight sidecar %s unexpectedly %s\n",
                 flight_path.c_str(), gh::obs::kEnabled ? "missing" : "present");
    return 1;
  }
  if (gh::obs::kEnabled) {
    // Touch the reopened map so the fresh rings carry records, then scan
    // the sidecar offline through the same path `--flight` uses.
    for (gh::u64 k = 1; k <= 64; ++k) map.put(k, k);
    if (dump_flight(flight_path, "") != 0) {
      std::fprintf(stderr, "gh_stats: flight sidecar scan failed\n");
      return 1;
    }
    if (!s.flight.enabled) {
      std::fprintf(stderr, "gh_stats: snapshot flight section disabled\n");
      return 1;
    }
  }
  const int rc = emit(s, format);
  if (!keep) {
    map.close();
    std::remove(path.c_str());
    std::remove(flight_path.c_str());
  }
  if (rc == 0) std::fprintf(stderr, "gh_stats: selftest OK (obs %s)\n",
                            gh::obs::kEnabled ? "on" : "compiled out");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const gh::Cli cli(argc, argv);
  const std::string format = cli.get_or("format", "text");
  try {
    if (cli.has("selftest")) return selftest(format, cli.has("keep"));
    if (cli.has("flight")) {
      // Accept both --flight=<file> and `--flight <file>` (positional).
      // A bare --flight parses as the flag sentinel "1"; the file is then
      // the first positional argument.
      std::string fpath = cli.get_or("flight", "");
      if (fpath.empty() || fpath == "1") {
        fpath = cli.positional().empty() ? "" : cli.positional().front();
      }
      if (fpath.empty()) {
        std::fprintf(stderr,
                     "usage: gh_stats --flight <file.flight> [--spans=file.spans] "
                     "[--trace=out.json]\n");
        return 2;
      }
      return dump_flight(fpath, cli.get_or("trace", ""), cli.get_or("spans", ""));
    }
    if (cli.has("spans")) {
      return dump_spans(cli.get_or("spans", ""), cli.get_or("trace", ""));
    }
    if (cli.positional().empty()) {
      std::fprintf(stderr,
                   "usage: gh_stats <file.gh> [--format=json|prom|text]\n"
                   "       gh_stats --flight <file.flight> [--spans=file.spans] "
                   "[--trace=out.json]\n"
                   "       gh_stats --spans=<file.spans> [--trace=out.json]\n"
                   "       gh_stats --selftest [--format=...] [--keep]\n");
      return 2;
    }
    const std::string& path = cli.positional().front();
    const gh::MapFileInfo info = gh::read_map_file_info(path);
    return info.cell_size == 16 ? dump<gh::GroupHashMap>(path, format)
                                : dump<gh::GroupHashMapWide>(path, format);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gh_stats: %s\n", e.what());
    return 2;
  }
}
