#include "obs/phase_scope.h"

#include "obs/active_queries.h"
#include "obs/metrics_registry.h"
#include "obs/query_trace.h"

namespace aggcache {

PhaseScope::PhaseScope(SpanKind kind, Histogram* latency_us)
    : kind_(kind),
      latency_us_(latency_us),
      start_(Clock::now()),
      span_(kind, start_) {
  ActiveQueryGuard::CurrentSetPhase(SpanKindToString(kind));
  // Sample counters only when someone consumes the delta: the thread-local
  // EXPLAIN trace, or a live (sampled + enabled) span. With neither, this
  // costs two branches — the span-overhead gate's budget assumes exactly
  // this.
  if (TraceContext::Current() == nullptr && !span_.active()) return;
  perf_begin_ = PerfCounters::Read();
  perf_armed_ = perf_begin_.valid;
}

int64_t PhaseScope::Close() {
  if (closed_) return elapsed_ns_;
  closed_ = true;
  Clock::time_point end = Clock::now();
  elapsed_ns_ =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count();
  if (perf_armed_) {
    PerfDelta delta = PerfCounters::Delta(perf_begin_, PerfCounters::Read());
    if (delta.valid) {
      if (QueryTrace* trace = TraceContext::Current()) {
        trace->perf_phases.push_back(
            QueryTrace::PhasePerf{SpanKindToString(kind_), delta});
      }
      span_.SetPerf(delta.cycles, delta.instructions, delta.llc_misses);
    }
  }
  span_.End(end);
  return elapsed_ns_;
}

int64_t PhaseScope::End() {
  bool first = !closed_;
  int64_t elapsed_ns = Close();
  if (first && latency_us_ != nullptr) {
    latency_us_->Observe(static_cast<uint64_t>(elapsed_ns / 1000));
  }
  return elapsed_ns;
}

}  // namespace aggcache
