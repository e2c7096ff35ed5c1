// Measurement plumbing of the campaign benchmark: clocks, process resource
// usage, order statistics, the result report, and the benchmark's own span
// recorder. Nothing here calls into the library.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

/// Process-wide CPU time (all threads) and voluntary context switches.
struct Usage {
  double cpu_s = 0.0;
  long voluntary_switches = 0;
};

inline Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.voluntary_switches = ru.ru_nvcsw;
  return u;
}

/// Peak resident set size of the process so far, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (the R-7 / numpy default); 0 when empty.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}
inline double median(const std::vector<double>& xs) {
  return quantile(xs, 0.5);
}
inline double sum(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Human-readable detail line on stdout ("# " prefixed, so the final JSON
/// line stays the only line that parses as a result).
inline void note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fputs("# ", stdout);
  std::vfprintf(stdout, fmt, args);
  std::fputc('\n', stdout);
  va_end(args);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics of one run, printed as the final JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;  // JSON has no NaN/Inf
    metrics_.push_back({name, value, unit});
  }
  /// A percentile family: p50, p90 and the sample count they rest on.
  void add_percentiles(const std::string& prefix, const std::vector<double>& xs,
                       double scale, const std::string& unit) {
    add(prefix + ".p50_" + unit, scale * quantile(xs, 0.5), unit);
    add(prefix + ".p90_" + unit, scale * quantile(xs, 0.9), unit);
    add(prefix + ".n", static_cast<double>(xs.size()), "count");
  }

  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// The benchmark's own spans around its calls into the library. One thread
/// at a time records: the main thread, or the helper thread that runs a
/// campaign call while the main thread waits for it (thread start and the
/// wait's mutex order the hand-over), so the open-span stack needs no lock.
class Spans {
 public:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Spans& spans, std::string name) : spans_(spans) {
      index_ = spans_.open(std::move(name));
    }
    ~Scope() { spans_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  /// Closes span `index` and returns its duration in seconds.
  double close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = now_s();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
    return s.end - s.start;
  }

  const std::vector<Span>& all() const { return spans_; }

  /// Duration minus the time covered by direct children (children of one
  /// span never overlap: they run one after another).
  double self_seconds(std::size_t index) const {
    const Span& s = spans_[index];
    double covered = 0.0;
    for (const Span& c : spans_) {
      if (c.parent == static_cast<int>(index)) covered += c.end - c.start;
    }
    return (s.end - s.start) - covered;
  }

  /// Chrome trace-event JSON of every span; loadable next to the library's
  /// own trace in a viewer.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"self_us\": %.3f}}",
                   i ? "," : "", s.name.c_str(), 1e6 * s.start,
                   1e6 * (s.end - s.start), i, s.parent,
                   1e6 * self_seconds(i));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
