// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (none are recorded inside the library).  Each span has a
// name, start, end, parent span and the id of the request it belongs to.
// They are kept in memory, written once at exit as Chrome trace-event JSON,
// and reduced to a per-name table of counts, total and self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns, end_ns;
    int parent;  ///< index of the enclosing span, -1 at the top
    std::uint64_t request;
  };

  /// Spans are recorded only between record(true) and record(false);
  /// begin/end are no-ops otherwise.
  void record(bool on) {
    if (on && spans_.capacity() == 0) spans_.reserve(1 << 16);
    on_ = on;
  }

  /// Opens a span under the innermost open one; returns its index or -1.
  int begin(const char* name, std::uint64_t request = 0) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    if (request == 0 && parent >= 0)
      request = spans_[static_cast<std::size_t>(parent)].request;
    spans_.push_back({name, now_ns(), 0, parent, request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int idx) {
    if (idx < 0 || !on_) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request = 0)
        : t_(t), idx_(t.begin(name, request)) {}
    ~Scope() { t_.end(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

  struct Row {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Per span name: how many, total duration, and self time (duration minus
  /// the part covered by direct children).
  [[nodiscard]] std::map<std::string, Row> table() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_s[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      const double d =
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
      ++r.count;
      r.total_s += d;
      r.self_s += d - child_s[i];
    }
    return rows;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, in
  /// microseconds); returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%llu}}",
                   i ? "," : "", s.name,
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, static_cast<unsigned long long>(s.request));
    }
    std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace bench
