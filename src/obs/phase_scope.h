#ifndef AGGCACHE_OBS_PHASE_SCOPE_H_
#define AGGCACHE_OBS_PHASE_SCOPE_H_

#include <chrono>
#include <cstdint>

#include "obs/perf_counters.h"
#include "obs/span.h"

namespace aggcache {

class Histogram;

/// The one instrumentation point of a query phase (admission wait, cache
/// lookup, entry build, main correction, delta compensation, uncached
/// execution). Opening it
///   * sets the thread-current active query's phase (/queries),
///   * opens the phase span as a child of the thread-current span,
///   * arms the thread's perf counters when EXPLAIN or the span listens,
/// and it reads the steady clock exactly once at each end. The single
/// elapsed value End() returns is what every consumer records — the latency
/// histogram passed in, CacheExecStats, the ledger EWMAs, the admission
/// wait — and the span carries the same two timestamps.
///
/// A phase left by an error return closes at destruction: its span and perf
/// sample publish, but it feeds no latency histogram, so failed phases do
/// not skew latency percentiles.
class PhaseScope {
 public:
  /// `latency_us` (may be null) receives the elapsed microseconds at End().
  explicit PhaseScope(SpanKind kind, Histogram* latency_us = nullptr);
  ~PhaseScope() { Close(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Closes the phase and returns its elapsed nanoseconds; later calls
  /// return the same value without recording again.
  int64_t End();
  double EndMillis() { return static_cast<double>(End()) / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Closes span and perf sample on first call; returns elapsed ns.
  int64_t Close();

  const SpanKind kind_;
  Histogram* const latency_us_;
  const Clock::time_point start_;
  ScopedSpan span_;
  bool perf_armed_ = false;
  PerfDelta perf_begin_;
  bool closed_ = false;
  int64_t elapsed_ns_ = 0;
};

}  // namespace aggcache

#endif  // AGGCACHE_OBS_PHASE_SCOPE_H_
