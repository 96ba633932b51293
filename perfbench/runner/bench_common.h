#ifndef PERFBENCH_RUNNER_BENCH_COMMON_H_
#define PERFBENCH_RUNNER_BENCH_COMMON_H_

// Shared plumbing of the benchmark runner: clocks, /proc readers, order
// statistics, the in-memory span tracer, the result tally and the metric
// table that becomes the runner's last output line.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- clocks -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady clock).
double NowS();

/// CPU time (user + system) of this process, in seconds.
double ProcessCpuS();

/// CPU time (user + system) of process `pid` from /proc/<pid>/stat, in
/// seconds; -1 when unreadable.
double PidCpuS(pid_t pid);

/// Peak resident set (VmHWM) of `pid` (0 = this process), in MB; -1 when
/// unreadable.
double PeakRssMb(pid_t pid = 0);

/// Resets this process's VmHWM to its current RSS (Linux clear_refs "5"),
/// so a later PeakRssMb() covers only what happened after the call.
void ResetPeakRss();

/// Fixed integer loop used as the host-noise calibration row: its time
/// moves only with the host (frequency, co-tenants), never with the code
/// under test. Returns milliseconds (median of a few repeats).
double CalibrationMs();

// ---- statistics ---------------------------------------------------------

/// Quantile `q` in [0,1] by linear interpolation between order statistics;
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---- hashing ------------------------------------------------------------

/// FNV-1a 64, used for verdict digests and input identities. The runner
/// hashes with its own function so no check relies on the code it checks.
struct Hasher {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* data, size_t n);
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

/// Hash of a file's bytes (0 when unreadable).
uint64_t HashFile(const std::string& path);

// ---- tracing ------------------------------------------------------------

/// In-memory span recorder. Spans are opened around the runner's calls
/// into each layer's public functions; nothing is written until
/// WriteChromeTrace() at exit. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;  ///< spans of one request share this id
    double start_s = 0;
    double end_s = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_ = 0;
    uint64_t saved_parent_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Sum of the durations of every span called `name`, in seconds.
  double Total(std::string_view name) const;
  /// Durations of every span called `name`, in seconds.
  std::vector<double> Durations(std::string_view name) const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  uint64_t next_id_ = 1;
  uint64_t current_ = 0;
  std::vector<Span> spans_;
};

// ---- results ------------------------------------------------------------

/// Counts attempted and failed operations (a wrong verdict, an error reply,
/// a shed request and a timeout all count as failed) and remembers why.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;  ///< false on any failure or invalid measurement
  std::vector<std::string> problems;

  void Ok() { ++attempted; }
  void Fail(const std::string& why);
  /// Marks the run invalid without an operation failing (e.g. the load
  /// generator ran late, so its latencies would flatter the server).
  void Invalid(const std::string& why);
};

/// Metric name -> (value, unit), printed in insertion order.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Value of a metric already set (0 when absent).
  double Get(const std::string& name) const;
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Formats a double with all its digits (%.17g), "null" for non-finite.
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_BENCH_COMMON_H_
