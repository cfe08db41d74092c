#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace aggcache {

namespace {

/// The innermost active span on this thread. Plain (non-atomic) TLS: only
/// this thread reads or writes it.
thread_local SpanLink t_current_span;

/// The global recorder once constructed — read by the CHECK-failure chain
/// without forcing construction mid-crash.
std::atomic<SpanRecorder*> g_global_recorder{nullptr};

SpanRecorder::Options ParseSpanEnv() {
  SpanRecorder::Options options;
  const char* env = std::getenv("AGGCACHE_SPANS");
  if (env == nullptr) return options;
  std::string spec(env);
  if (spec == "off" || spec == "0" || spec.empty()) return options;
  options.enabled = true;
  if (spec == "on" || spec == "1") return options;
  for (const auto& [key, text] : SplitKeyValues(spec)) {
    long value = std::strtol(text.c_str(), nullptr, 10);
    if (key == "sample" && value > 0) {
      options.sample_every = static_cast<uint64_t>(value);
    } else if (key == "spans" && value > 0) {
      options.spans_per_segment = static_cast<size_t>(value);
    } else if (key == "threads" && value > 0) {
      options.max_segments = static_cast<size_t>(value);
    }
  }
  return options;
}

void CopyDetail(char (&dst)[16], const char* detail) {
  if (detail == nullptr) return;
  std::strncpy(dst, detail, sizeof(dst) - 1);
}

}  // namespace

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kAdmissionWait:
      return "admission_wait";
    case SpanKind::kCacheLookup:
      return "cache_lookup";
    case SpanKind::kSingleFlightWait:
      return "singleflight_wait";
    case SpanKind::kEntryBuild:
      return "entry_build";
    case SpanKind::kMainCorrection:
      return "main_correction";
    case SpanKind::kDeltaCompensation:
      return "delta_compensation";
    case SpanKind::kUncachedExec:
      return "uncached_exec";
    case SpanKind::kSubjoinTask:
      return "subjoin_task";
    case SpanKind::kMerge:
      return "merge";
    case SpanKind::kCheckpoint:
      return "checkpoint";
    case SpanKind::kWalSync:
      return "wal_sync";
    case SpanKind::kRecoveryReplay:
      return "recovery_replay";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(Options options)
    : ring_(options.spans_per_segment, options.max_segments),
      sample_every_(std::max<uint64_t>(options.sample_every, 1)),
      t0_(Clock::now()),
      enabled_(options.enabled) {}

uint64_t SpanRecorder::ToMicros(Clock::time_point t) const {
  if (t <= t0_) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - t0_).count());
}

bool SpanRecorder::SampleTick() {
  if (sample_every_ == 1) return true;
  return sample_tick_.fetch_add(1, std::memory_order_relaxed) %
             sample_every_ ==
         0;
}

void SpanRecorder::Record(SpanKind kind, uint64_t span_id,
                          uint64_t parent_id, uint64_t query_id,
                          uint64_t start_us, uint64_t end_us,
                          const char* detail, uint64_t cycles,
                          uint64_t instructions, uint64_t llc_misses) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  uint64_t words[2] = {0, 0};
  if (detail != nullptr) {
    char buf[16] = {};
    std::strncpy(buf, detail, sizeof(buf) - 1);
    std::memcpy(words, buf, sizeof(buf));
  }
  ring_.Record({start_us, end_us >= start_us ? end_us - start_us : 0,
                static_cast<uint64_t>(kind), span_id, parent_id, query_id,
                words[0], words[1], cycles, instructions, llc_misses});
}

std::vector<SpanRecorder::Span> SpanRecorder::Collect(
    size_t max_spans) const {
  std::vector<Span> spans;
  for (const auto& record : ring_.Collect(max_spans)) {
    Span span;
    span.seq = record.seq;
    span.thread = record.thread;
    span.start_us = record.words[0];
    span.dur_us = record.words[1];
    span.kind = static_cast<SpanKind>(record.words[2]);
    span.span_id = record.words[3];
    span.parent_id = record.words[4];
    span.query_id = record.words[5];
    std::memcpy(span.detail, &record.words[6], sizeof(span.detail));
    span.detail[sizeof(span.detail) - 1] = '\0';
    span.cycles = record.words[8];
    span.instructions = record.words[9];
    span.llc_misses = record.words[10];
    spans.push_back(span);
  }
  return spans;
}

std::string SpanRecorder::DumpJson(size_t max_spans) const {
  std::vector<Span> spans = Collect(max_spans);
  std::string out;
  out.reserve(160 + spans.size() * 128);
  out += "{\"schema\":\"aggcache-spans-v1\",\"recorded\":";
  out += std::to_string(recorded_spans());
  out += ",\"lost\":";
  out += std::to_string(lost_spans());
  out += ",\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += SpanKindToString(span.kind);
    out += "\",\"cat\":\"aggcache\",\"ph\":\"X\",\"ts\":";
    out += std::to_string(span.start_us);
    out += ",\"dur\":";
    out += std::to_string(span.dur_us);
    out += ",\"pid\":";
    out += std::to_string(span.query_id);
    out += ",\"tid\":";
    out += std::to_string(span.thread);
    out += ",\"args\":{\"id\":";
    out += std::to_string(span.span_id);
    out += ",\"parent\":";
    out += std::to_string(span.parent_id);
    out += ",\"detail\":\"";
    AppendJsonEscaped(&out, span.detail);
    out += '"';
    // Perf fields only when the region was measured, so traces from hosts
    // without counters (and the byte-exact golden test) are unchanged.
    if (span.cycles > 0) {
      out += StrFormat(",\"ipc\":%.2f,\"llc_miss\":%llu",
                       static_cast<double>(span.instructions) /
                           static_cast<double>(span.cycles),
                       static_cast<unsigned long long>(span.llc_misses));
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void SpanRecorder::DumpToStderr(size_t max_spans) const {
  std::string dump = DumpJson(max_spans);
  std::fprintf(stderr, "--- aggcache span recorder dump ---\n%s\n",
               dump.c_str());
  std::fflush(stderr);
}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = [] {
    SpanRecorder* r = new SpanRecorder(ParseSpanEnv());
    g_global_recorder.store(r, std::memory_order_release);
    return r;
  }();
  return *recorder;
}

void DumpSpansOnCheckFailureIfEnabled() {
  SpanRecorder* recorder = g_global_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr && recorder->enabled()) {
    recorder->DumpToStderr();
  }
}

SpanLink CurrentSpanLink() { return t_current_span; }

void ScopedSpan::Begin(SpanKind kind, uint64_t query_id, uint64_t parent_id,
                       const char* detail, uint64_t start_us) {
  active_ = true;
  kind_ = kind;
  query_id_ = query_id;
  parent_id_ = parent_id;
  span_id_ = SpanRecorder::Global().NextSpanId();
  start_us_ = start_us;
  CopyDetail(detail_, detail);
  saved_ = t_current_span;
  t_current_span = SpanLink{query_id_, span_id_};
}

ScopedSpan::ScopedSpan(SpanKind kind, const char* detail)
    : ScopedSpan(kind, t_current_span, detail) {}

ScopedSpan::ScopedSpan(SpanKind kind, const SpanLink& parent,
                       const char* detail) {
  if (!parent.sampled()) return;
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) return;
  Begin(kind, parent.query_id, parent.span_id, detail, recorder.NowMicros());
}

ScopedSpan::ScopedSpan(SpanKind kind,
                       std::chrono::steady_clock::time_point start) {
  SpanLink parent = t_current_span;
  if (!parent.sampled()) return;
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) return;
  Begin(kind, parent.query_id, parent.span_id, nullptr,
        recorder.ToMicros(start));
}

void ScopedSpan::End(std::chrono::steady_clock::time_point end) {
  if (!active_) return;
  active_ = false;
  t_current_span = saved_;
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.Record(kind_, span_id_, parent_id_, query_id_, start_us_,
                  recorder.ToMicros(end), detail_, cycles_, instructions_,
                  llc_misses_);
}

ScopedSpan::~ScopedSpan() {
  if (active_) End(std::chrono::steady_clock::now());
}

RootSpan::RootSpan(SpanKind kind, const char* detail, bool apply_sampling) {
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) return;
  if (apply_sampling && !recorder.SampleTick()) return;
  active_ = true;
  kind_ = kind;
  query_id_ = recorder.NextQueryId();
  span_id_ = recorder.NextSpanId();
  start_us_ = recorder.NowMicros();
  CopyDetail(detail_, detail);
  saved_ = t_current_span;
  t_current_span = SpanLink{query_id_, span_id_};
}

RootSpan::~RootSpan() {
  if (!active_) return;
  t_current_span = saved_;
  SpanRecorder& recorder = SpanRecorder::Global();
  recorder.Record(kind_, span_id_, 0, query_id_, start_us_,
                  recorder.NowMicros(), detail_);
}

void RecordSpanSince(SpanKind kind, uint64_t start_us, const char* detail) {
  SpanLink parent = t_current_span;
  if (!parent.sampled()) return;
  SpanRecorder& recorder = SpanRecorder::Global();
  if (!recorder.enabled()) return;
  recorder.Record(kind, recorder.NextSpanId(), parent.span_id,
                  parent.query_id, start_us, recorder.NowMicros(), detail);
}

}  // namespace aggcache
