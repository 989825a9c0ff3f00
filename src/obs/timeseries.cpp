#include "obs/timeseries.hpp"

#include <cstdio>
#include <cstdlib>

namespace gh::obs {

namespace {

/// Histogram of ONLY the samples recorded between prev and cur: the
/// sparse bucket lists are monotone per bucket (cur ⊇ prev with counts
/// that only grow), so a bucket-wise subtraction is exact.
HistogramSnapshot histogram_delta(const HistogramSnapshot& cur,
                                  const HistogramSnapshot& prev) {
  HistogramSnapshot d;
  d.count = cur.count >= prev.count ? cur.count - prev.count : 0;
  d.sum_ticks = cur.sum_ticks >= prev.sum_ticks ? cur.sum_ticks - prev.sum_ticks : 0;
  usize j = 0;
  for (const auto& [bucket, n] : cur.buckets) {
    while (j < prev.buckets.size() && prev.buckets[j].first < bucket) ++j;
    u64 before = 0;
    if (j < prev.buckets.size() && prev.buckets[j].first == bucket) before = prev.buckets[j].second;
    if (n > before) d.buckets.emplace_back(bucket, n - before);
  }
  return d;
}

void append_escaped_number(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

/// Extract the number after `"key":` within [begin, end). Returns
/// fallback when the key is absent.
double find_number(std::string_view text, std::string_view key, double fallback) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const usize pos = text.find(needle);
  if (pos == std::string_view::npos) return fallback;
  const char* start = text.data() + pos + needle.size();
  char* endp = nullptr;
  const double v = std::strtod(start, &endp);
  if (endp == start) return fallback;
  return v;
}

}  // namespace

TimeSeries::TimeSeries(usize max_windows, u64 interval_ms)
    : max_windows_(max_windows == 0 ? 1 : max_windows),
      interval_ms_(interval_ms) {
  ring_.resize(max_windows_);
}

void TimeSeries::tick(const Snapshot& cumulative, u64 now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!have_prev_) {
    have_prev_ = true;
    prev_ms_ = now_ms;
    prev_latency_ = cumulative.latency;
    prev_phases_ = cumulative.phases;
    return;
  }
  TimeWindow w;
  w.t_ms = now_ms;
  w.dur_ms = now_ms > prev_ms_ ? now_ms - prev_ms_ : 0;

  // Window histogram: union of every kind's bucket delta; merging with
  // the accumulating value recomputes the percentiles each step.
  HistogramSnapshot window_hist;
  for (usize k = 0; k < kOpKinds; ++k) {
    const OpKind kind = static_cast<OpKind>(k);
    window_hist.merge(histogram_delta(cumulative.latency.of(kind), prev_latency_.of(kind)));
  }
  w.ops = window_hist.count;
  w.qps = w.dur_ms > 0 ? static_cast<double>(w.ops) * 1000.0 / static_cast<double>(w.dur_ms)
                       : 0;
  w.p50_ns = window_hist.p50_ns;
  w.p99_ns = window_hist.p99_ns;

  PhaseSnapshot::Row delta_total;
  for (usize k = 0; k < kOpKinds; ++k) {
    const PhaseSnapshot::Row& cur = cumulative.phases.rows[k];
    const PhaseSnapshot::Row& prev = prev_phases_.rows[k];
    delta_total.op_ns += cur.op_ns >= prev.op_ns ? cur.op_ns - prev.op_ns : 0;
    for (usize p = 0; p < kPhases; ++p) {
      delta_total.phase_ns[p] +=
          cur.phase_ns[p] >= prev.phase_ns[p] ? cur.phase_ns[p] - prev.phase_ns[p] : 0;
    }
  }
  if (delta_total.op_ns > 0) {
    for (usize p = 0; p < kPhases; ++p) {
      w.phase_share[p] = static_cast<double>(delta_total.phase_ns[p]) /
                         static_cast<double>(delta_total.op_ns);
    }
  }

  w.mig_active = cumulative.migration.active;
  w.mig_cursor = cumulative.migration.cursor;
  w.mig_total = cumulative.migration.total_groups;
  w.load_factor = cumulative.load_factor;

  ring_[head_] = w;
  head_ = (head_ + 1) % max_windows_;
  if (count_ < max_windows_) ++count_;

  prev_ms_ = now_ms;
  prev_latency_ = cumulative.latency;
  prev_phases_ = cumulative.phases;
}

std::vector<TimeWindow> TimeSeries::windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TimeWindow> out;
  out.reserve(count_);
  usize idx = (head_ + max_windows_ - count_) % max_windows_;
  for (usize i = 0; i < count_; ++i) {
    out.push_back(ring_[idx]);
    idx = (idx + 1) % max_windows_;
  }
  return out;
}

TimeseriesGauges TimeSeries::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  TimeseriesGauges g;
  g.windows = count_;
  g.interval_ms = interval_ms_;
  if (count_ > 0) {
    const TimeWindow& last = ring_[(head_ + max_windows_ - 1) % max_windows_];
    g.last_window_ms = last.t_ms;
    g.last_qps = last.qps;
    g.last_p99_ns = last.p99_ns;
  }
  return g;
}

void TimeSeries::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  have_prev_ = false;
  prev_ms_ = 0;
  prev_latency_ = OpLatencySnapshot{};
  prev_phases_ = PhaseSnapshot{};
  head_ = 0;
  count_ = 0;
}

std::string export_timeseries_json(const TimeSeries& ts) {
  const std::vector<TimeWindow> windows = ts.windows();
  std::string out = "{\"schema\":\"";
  out += kTimeseriesSchema;
  out += "\",\"version\":1,\"max_windows\":";
  out += std::to_string(ts.max_windows());
  out += ",\"interval_ms\":";
  out += std::to_string(ts.interval_ms());
  out += ",\"windows\":[";
  for (usize i = 0; i < windows.size(); ++i) {
    const TimeWindow& w = windows[i];
    if (i != 0) out += ',';
    out += "\n{\"t_ms\":";
    out += std::to_string(w.t_ms);
    out += ",\"dur_ms\":";
    out += std::to_string(w.dur_ms);
    out += ",\"ops\":";
    out += std::to_string(w.ops);
    out += ",\"qps\":";
    append_escaped_number(out, w.qps);
    out += ",\"p50_ns\":";
    append_escaped_number(out, w.p50_ns);
    out += ",\"p99_ns\":";
    append_escaped_number(out, w.p99_ns);
    for (usize p = 0; p < kPhases; ++p) {
      out += ",\"";
      out += phase_name(static_cast<Phase>(p));
      out += "_share\":";
      append_escaped_number(out, w.phase_share[p]);
    }
    out += ",\"mig_active\":";
    out += std::to_string(w.mig_active);
    out += ",\"mig_cursor\":";
    out += std::to_string(w.mig_cursor);
    out += ",\"mig_total\":";
    out += std::to_string(w.mig_total);
    out += ",\"load_factor\":";
    append_escaped_number(out, w.load_factor);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::string export_timeseries_prometheus(const TimeSeries& ts) {
  const std::vector<TimeWindow> windows = ts.windows();
  std::string out;
  out += "# HELP gh_window_qps Requests per second over the newest window\n";
  out += "# TYPE gh_window_qps gauge\n";
  out += "# HELP gh_window_p99_ns p99 latency of the newest window\n";
  out += "# TYPE gh_window_p99_ns gauge\n";
  out += "# HELP gh_window_phase_share Share of attributed time per phase, newest window\n";
  out += "# TYPE gh_window_phase_share gauge\n";
  out += "# HELP gh_window_mig_cursor Migration cursor at the newest window end\n";
  out += "# TYPE gh_window_mig_cursor gauge\n";
  if (windows.empty()) return out;
  const TimeWindow& w = windows.back();
  char buf[128];
  std::snprintf(buf, sizeof(buf), "gh_window_qps %.3f\n", w.qps);
  out += buf;
  std::snprintf(buf, sizeof(buf), "gh_window_p99_ns %.3f\n", w.p99_ns);
  out += buf;
  for (usize p = 0; p < kPhases; ++p) {
    std::snprintf(buf, sizeof(buf), "gh_window_phase_share{phase=\"%s\"} %.6f\n",
                  phase_name(static_cast<Phase>(p)), w.phase_share[p]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "gh_window_mig_cursor %llu\n",
                static_cast<unsigned long long>(w.mig_cursor));
  out += buf;
  return out;
}

bool parse_timeseries_json(std::string_view text, std::vector<TimeWindow>* out) {
  out->clear();
  const usize arr = text.find("\"windows\":[");
  if (arr == std::string_view::npos) return false;
  usize pos = arr + std::string_view("\"windows\":[").size();
  while (true) {
    const usize open = text.find('{', pos);
    const usize close_arr = text.find(']', pos);
    if (open == std::string_view::npos) break;
    if (close_arr != std::string_view::npos && close_arr < open) break;
    const usize close = text.find('}', open);
    if (close == std::string_view::npos) return false;
    const std::string_view obj = text.substr(open, close - open + 1);
    TimeWindow w;
    w.t_ms = static_cast<u64>(find_number(obj, "t_ms", 0));
    w.dur_ms = static_cast<u64>(find_number(obj, "dur_ms", 0));
    w.ops = static_cast<u64>(find_number(obj, "ops", 0));
    w.qps = find_number(obj, "qps", 0);
    w.p50_ns = find_number(obj, "p50_ns", 0);
    w.p99_ns = find_number(obj, "p99_ns", 0);
    for (usize p = 0; p < kPhases; ++p) {
      std::string key = phase_name(static_cast<Phase>(p));
      key += "_share";
      w.phase_share[p] = find_number(obj, key, 0);
    }
    w.mig_active = static_cast<u64>(find_number(obj, "mig_active", 0));
    w.mig_cursor = static_cast<u64>(find_number(obj, "mig_cursor", 0));
    w.mig_total = static_cast<u64>(find_number(obj, "mig_total", 0));
    w.load_factor = find_number(obj, "load_factor", 0);
    out->push_back(w);
    pos = close + 1;
  }
  return true;
}

}  // namespace gh::obs
