#include "obs/metrics.hpp"

#include <algorithm>

#include "util/clock.hpp"

namespace gh::obs {

u64 now_ticks_slow() {
  if constexpr (!kEnabled) return 0;
  return now_ns();
}

double ticks_per_ns() {
#if defined(__x86_64__) || defined(_M_X64)
  // Reuse the spin-wait calibration (util/clock.cpp): cycles per ns.
  static const double tpn = [] {
    const double ghz = tsc_ghz();
    return ghz > 0 ? ghz : 1.0;
  }();
  return tpn;
#else
  return 1.0;  // now_ticks_slow already returns nanoseconds
#endif
}

double LatencyHistogram::bucket_midpoint(usize bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const usize block = bucket >> kSubBits;
  const usize sub = bucket & (kSub - 1);
  const usize exp = block + kSubBits - 1;
  const double low = static_cast<double>(u64{1} << exp) +
                     static_cast<double>(sub) * static_cast<double>(u64{1} << (exp - kSubBits));
  const double width = static_cast<double>(u64{1} << (exp - kSubBits));
  return low + width / 2.0;
}

namespace {

// Recompute sum_ns from the tick sum and mean/p50/p95/p99/p999 from the
// sparse tick-domain bucket list (shared by LatencyHistogram::snapshot and
// HistogramSnapshot::merge so a merged aggregate and a union histogram
// derive identical statistics).
void finalize_histogram(HistogramSnapshot& s) {
  s.sum_ns = ticks_to_ns(s.sum_ticks);
  if (s.count == 0) {
    s.mean_ns = s.p50_ns = s.p95_ns = s.p99_ns = s.p999_ns = 0;
    return;
  }
  const double tpn = ticks_per_ns();
  s.mean_ns = static_cast<double>(s.sum_ticks) / tpn / static_cast<double>(s.count);
  const auto percentile = [&](double q) {
    const double target = q / 100.0 * static_cast<double>(s.count);
    u64 cumulative = 0;
    for (const auto& [bucket, n] : s.buckets) {
      cumulative += n;
      if (static_cast<double>(cumulative) >= target) {
        return LatencyHistogram::bucket_midpoint(bucket) / tpn;
      }
    }
    return LatencyHistogram::bucket_midpoint(s.buckets.back().first) / tpn;
  };
  s.p50_ns = percentile(50);
  s.p95_ns = percentile(95);
  s.p99_ns = percentile(99);
  s.p999_ns = percentile(99.9);
}

}  // namespace

void HistogramSnapshot::merge(const HistogramSnapshot& o) {
  count += o.count;
  sum_ticks += o.sum_ticks;
  max_ns = std::max(max_ns, o.max_ns);
  // Two-pointer merge of the sorted sparse bucket lists.
  std::vector<std::pair<u32, u64>> merged;
  merged.reserve(buckets.size() + o.buckets.size());
  usize i = 0;
  usize j = 0;
  while (i < buckets.size() || j < o.buckets.size()) {
    if (j >= o.buckets.size() ||
        (i < buckets.size() && buckets[i].first < o.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() || o.buckets[j].first < buckets[i].first) {
      merged.push_back(o.buckets[j++]);
    } else {
      merged.emplace_back(buckets[i].first, buckets[i].second + o.buckets[j].second);
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
  finalize_histogram(*this);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  // One relaxed pass over the buckets; each bucket only grows, so the
  // derived count is monotone across successive snapshots and the view
  // is never torn below bucket granularity.
  HistogramSnapshot s;
  for (usize i = 0; i < kBuckets; ++i) {
    const u64 n = buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) {
      s.buckets.emplace_back(static_cast<u32>(i), n);
      s.count += n;
    }
  }
  s.sum_ticks = sum_.load(std::memory_order_relaxed);
  s.max_ns = ticks_to_ns(max_.load(std::memory_order_relaxed));
  finalize_histogram(s);
  return s;
}

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert: return "insert";
    case OpKind::kFind: return "find";
    case OpKind::kErase: return "erase";
    case OpKind::kExpand: return "expand";
    case OpKind::kScrub: return "scrub";
    case OpKind::kRecover: return "recover";
    case OpKind::kCompact: return "compact";
    case OpKind::kMigrate: return "migrate";
  }
  return "unknown";
}

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kRingWait: return "ring_wait";
    case Phase::kProbe: return "probe";
    case Phase::kPersist: return "persist";
    case Phase::kFence: return "fence";
    case Phase::kMigrateHelp: return "migrate_help";
  }
  return "unknown";
}

const char* migration_phase_name(MigrationPhase phase) {
  switch (phase) {
    case MigrationPhase::kNone: return "none";
    case MigrationPhase::kStart: return "start";
    case MigrationPhase::kPublished: return "published";
    case MigrationPhase::kCursor: return "cursor";
    case MigrationPhase::kFinalize: return "finalize";
    case MigrationPhase::kRetire: return "retire";
    case MigrationPhase::kResume: return "resume";
  }
  return "unknown";
}

const char* flight_phase_name(FlightPhase phase) {
  switch (phase) {
    case FlightPhase::kStart: return "start";
    case FlightPhase::kPublish: return "publish";
    case FlightPhase::kFinish: return "finish";
    case FlightPhase::kEvent: return "event";
  }
  return "unknown";
}

}  // namespace gh::obs
