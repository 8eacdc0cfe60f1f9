// Shared pieces of the end-to-end benchmark harness: clocks, the
// benchmark's own input generator, the in-memory span tracer, summary
// statistics and the result document every workload prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <time.h>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time (user + system) of the calling thread, seconds.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;          ///< one small round of everything, for self-tests
  std::string inputs;          ///< perfbench/inputs directory
  std::string forktail;        ///< path of the forktail CLI binary
  std::string work_dir;        ///< scratch output directory (traces, logs)
};

/// The benchmark's own generator (splitmix64 + xoshiro256**), kept apart
/// from the library's util::Rng so that a change to the program's random
/// streams never changes the benchmark's inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) {
    std::uint64_t x = seed ^ 0x5eed'ba5e'f00d'cafeULL;
    for (auto& word : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform on (0, 1).
  double uniform() {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  }

  double normal() {
    const double u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

/// Type-7 quantile (linear interpolation between order statistics), the
/// definition the benchmark uses for every summary it reports.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Peak resident set (VmHWM) of process `pid` ("self" = this one), MiB.
double peak_rss_mib(const std::string& pid = "self");

/// In-memory span recorder.  Spans nest through a stack of open spans; a
/// disabled tracer records nothing and costs one branch per scope.  Spans
/// are written out once, at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index into spans(), -1 for a root
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int open(const char* name) {
    if (!enabled_ || name == nullptr) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// RAII scope around one call into a layer.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }
    /// Close early (the span then ends here, not at scope exit).
    void end() {
      tracer_.close(id_);
      id_ = -1;
    }

   private:
    Tracer& tracer_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time covered by direct children) of
  /// every span under `root` (inclusive), summed per name, seconds.
  std::map<std::string, double> self_time_by_name(int root) const;

  /// Total duration of the direct children of `root`, seconds.
  double children_s(int root) const;

  double duration_s(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  /// Write every span as JSON lines: name, start, end, parent.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// One workload's result: the operation counts, the metrics by name and
/// unit, and free-form information lines for the log.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> problems;  ///< failed checks (correct = false)
  std::vector<std::string> failures;  ///< failed operations
  forktail::util::Json info = forktail::util::Json::object();

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Record a failed correctness check.
  void problem(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
  /// Record an operation that failed (counted; the run stays correct).
  void failure(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  std::string to_json() const;
};

/// The layers a traced run attributes time to: a span belongs to the
/// module its name starts with ("fjsim.perfect" -> fjsim).
inline const std::vector<std::string>& modules() {
  static const std::vector<std::string> list = {"scenario", "fjsim", "fault", "stats",
                                                "baselines", "core", "serve"};
  return list;
}

/// The per-layer metrics every traced run prints: each module's self time
/// as a share of the traced work (the spans `roots` and everything under
/// them; a module the workload never calls reads 0), the share the
/// modules cover together, and the tracing overhead.
void layer_metrics(Result& result, const Tracer& tracer, const std::vector<int>& roots,
                   double overhead_pct);

Result run_examples(const Options& options);
Result run_admission(const Options& options);
Result run_serve(const Options& options);

}  // namespace perfbench
