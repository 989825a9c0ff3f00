// obs::OpScope — the one per-op instrument edge.
//
// Every public op of a map or table (BasicGroupHashMap,
// PersistentStringMap, hash::TableAdapter) opens one scope. The scope
// draws ONE ticket from the structure's SampleGate on entry and derives
// every sampling decision from it:
//
//   * timed — 1 in 2^latency_sample_shift tickets, plus every op while
//     the thread is inside a sampled request trace (structures that
//     attribute phases only). A timed op pays two rdtsc, feeds the
//     latency histogram, and — when the structure attributes phases and
//     no enclosing op (put → expand, put → help-along) already owns the
//     thread's phase scratch — claims phase collection and, inside a
//     sampled trace, emits its op span with phase children;
//   * journaled — the flight recorder's start / mark / finish edges:
//     every lifecycle op while the recorder is on, every data op in
//     FlightMode::kFull, and 1 in 2^kFlightSampleShift tickets in
//     FlightMode::kSampled (see flight_admits for which ones).
//
// An op that is neither timed nor journaled pays the gate increment and,
// where phases are attributed, the thread-local trace check — nothing
// else. Under GH_OBS_OFF the scope folds away entirely.
//
// Unwinding: when a scope is destroyed by an exception (a failed put, a
// SimulatedCrash) it releases the phase scratch it claimed, so the
// thread's next op collects phases again, and records nothing else — no
// latency sample, no span, no flight finish edge. The black box
// therefore freezes with the op in flight, exactly as the crash left it.
#pragma once

#include <exception>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/types.hpp"

namespace gh::obs {

/// Which flight-recorder edges an op writes.
enum class FlightEdge : u8 {
  kNone,     ///< none (batched table ops, help-along, finishing drains)
  kSampled,  ///< data op: journaled per the recorder's mode and the ticket
  kAlways,   ///< lifecycle op: journaled whenever the recorder is on
};

/// Flight admission of a gate ticket: 1 in 2^kFlightSampleShift. It tests
/// ticket bits [1, 1 + shift) rather than the low bits, for two reasons.
/// A journaled ticket never has the low bits clear, so it is never also
/// latency-timed (shift ≥ 2) and timed samples carry no black-box
/// flushes. And a data op whose tickets all share one parity — during an
/// online resize every put is followed by its help-along scope — is still
/// journaled 1 in 2^shift.
inline bool flight_admits(u64 ticket) {
  constexpr u64 kMask = (u64{1} << kFlightSampleShift) - 1;
  return ((ticket >> 1) & kMask) == kMask;
}

/// What one structure's scopes feed. Non-owning: the structure keeps the
/// recorder, phase accumulator and flight recorder alive (heap-held, so
/// these pointers survive moves of the structure) and nulls a pointer to
/// switch that instrument off.
template <class PM>
struct BasicOpSinks {
  OpRecorder* latency = nullptr;              ///< per-op latency histograms
  PhaseAccum* phases = nullptr;               ///< phase scratch + spans
  BasicFlightRecorder<PM>* flight = nullptr;  ///< crash-surviving black box
  SampleGate gate;                            ///< one ticket per op
};

template <class PM>
class [[nodiscard]] BasicOpScope {
 public:
  BasicOpScope(BasicOpSinks<PM>& sinks, OpKind kind, u64 key_hash = 0,
               FlightEdge edge = FlightEdge::kSampled)
      : sinks_(&sinks), kind_(kind), key_hash_(key_hash) {
    if constexpr (!kEnabled) return;
    const u64 ticket = sinks.gate.ticket();
    if ((sinks.latency != nullptr && sinks.gate.admits(ticket)) ||
        (sinks.phases != nullptr && thread_trace_sampled())) {
      t0_ = now_ticks();
      if (sinks.phases != nullptr) owns_phases_ = phase_collect_begin(t0_);
    }
    if (sinks.flight != nullptr && edge != FlightEdge::kNone) {
      token_ = edge == FlightEdge::kAlways
                   ? sinks.flight->op_begin_always(kind, key_hash)
                   : sinks.flight->op_begin(kind, key_hash, flight_admits(ticket));
    }
    if (t0_ != 0 || token_ != 0) exceptions_ = std::uncaught_exceptions();
  }

  BasicOpScope(const BasicOpScope&) = delete;
  BasicOpScope& operator=(const BasicOpScope&) = delete;

  // noexcept(false): the finish edge persists through the recorder's PM,
  // and a crash injected there (SimulatedCrash) must reach the caller.
  ~BasicOpScope() noexcept(false) {
    if constexpr (!kEnabled) return;
    if (t0_ == 0 && token_ == 0) return;
    if (std::uncaught_exceptions() > exceptions_) {
      if (owns_phases_) phase_collect_abort();
      return;
    }
    end_flight();
    if (t0_ == 0) return;
    const u64 dt = now_ticks() - t0_;
    if (sinks_->latency != nullptr) sinks_->latency->record(kind_, dt);
    if (owns_phases_) phase_collect_finish(*sinks_->phases, kind_, t0_, dt);
  }

  /// Publish edge: the irreversible step of an expand or compaction. The
  /// finish edge then carries the same key (the geometry published).
  void mark(u64 key_hash) {
    if constexpr (!kEnabled) return;
    key_hash_ = key_hash;
    if (token_ != 0) sinks_->flight->op_mark(token_, kind_, key_hash);
  }

  /// Write the finish edge now instead of at scope exit, so it precedes
  /// records of work the op triggers afterwards (help-along migration).
  void end_flight() {
    if constexpr (!kEnabled) return;
    if (token_ == 0) return;
    sinks_->flight->op_end(token_, kind_, key_hash_);
    token_ = 0;
  }

 private:
  BasicOpSinks<PM>* sinks_;
  OpKind kind_;
  u64 key_hash_;
  u64 t0_ = 0;     ///< nonzero: timed
  u64 token_ = 0;  ///< nonzero: journaled, finish edge still owed
  int exceptions_ = 0;
  bool owns_phases_ = false;
};

/// The maps' sinks and scope (their flight recorders run on DirectPM).
using OpSinks = BasicOpSinks<nvm::DirectPM>;
using OpScope = BasicOpScope<nvm::DirectPM>;

}  // namespace gh::obs
