#include "spans.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {
namespace {

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

size_t SpanLog::Open(const char* name, uint32_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().start = Clock::now();
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const char* name, uint32_t op, Clock::time_point start,
                  Clock::time_point end) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

double SpanLog::TotalUs(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.DurationUs();
  }
  return total;
}

std::map<std::string, double> SpanLog::SelfUsByLayer() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_us[span.parent] += span.DurationUs();
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[LayerOf(spans_[i].name)] += spans_[i].DurationUs() - child_us[i];
  }
  return self;
}

std::string SpanLog::SelfTimeTable() const {
  std::map<std::string, size_t> counts;
  for (const Span& span : spans_) ++counts[LayerOf(span.name)];
  std::map<std::string, double> self = SelfUsByLayer();
  double total = 0;
  for (const auto& [layer, us] : self) total += us;
  std::string out = "layer      spans      self_ms   share\n";
  char line[128];
  for (const auto& [layer, us] : self) {
    std::snprintf(line, sizeof(line), "%-8s %7zu %12.1f  %5.1f%%\n",
                  layer.c_str(), counts[layer], us / 1000.0,
                  total > 0 ? 100.0 * us / total : 0.0);
    out += line;
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  auto us_since_origin = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
       << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"perfbench client\"}}";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":%u,\"span\":%zu,\"parent\":%d}}",
                  span.name, LayerOf(span.name).c_str(),
                  us_since_origin(span.start), span.DurationUs(), span.op, i,
                  span.parent);
    file << buf;
  }
  file << "\n]}\n";
  return static_cast<bool>(file);
}

}  // namespace perfbench
