#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// In-memory span log of one traced phase, recorded by the benchmark around
/// each call it makes into a layer's public functions. Span names are
/// `<layer>.<call>`; each operation has one root span (`op.read`,
/// `op.write` or `op.merge`) and its calls nest under it. Nothing is
/// written until WriteChromeTrace at the end of the run.
class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;  ///< String literal; never freed.
    uint32_t op = 0;             ///< Operation index: spans of one op share it.
    int32_t parent = -1;         ///< Index of the enclosing span, -1 for roots.
    Clock::time_point start;
    Clock::time_point end;
    double DurationUs() const {
      return std::chrono::duration<double, std::micro>(end - start).count();
    }
  };

  SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  /// Opens a span nested under the innermost open one.
  size_t Open(const char* name, uint32_t op);
  void Close(size_t index);
  /// Records an already finished span under the innermost open one (used
  /// for intervals measured by a merge observer).
  void Add(const char* name, uint32_t op, Clock::time_point start,
           Clock::time_point end);

  /// Summed duration of every span called `name`.
  double TotalUs(const std::string& name) const;
  /// Self time (duration minus the time covered by child spans) summed per
  /// layer, i.e. per name prefix before the first '.'.
  std::map<std::string, double> SelfUsByLayer() const;
  /// Plain-text table of SelfUsByLayer with counts and shares.
  std::string SelfTimeTable() const;
  /// Writes Chrome trace-event JSON (loadable by Perfetto and
  /// chrome://tracing). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Opens a span on construction and closes it on destruction; does nothing
/// when `log` is null, which is how untimed runs stay span-free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t op)
      : log_(log), index_(log == nullptr ? 0 : log->Open(name, op)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
