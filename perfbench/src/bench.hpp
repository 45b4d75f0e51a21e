// Shared vocabulary of the end-to-end benchmark: run configuration, the
// operation ledger, timing statistics, spans and host probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using gcalib::graph::Edge;
using gcalib::graph::NodeId;
using Labels = std::vector<NodeId>;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tool;     ///< path of the gca_cc_tool binary
  std::string workdir;  ///< scratch directory for files this run writes
  std::string spans_path;
  unsigned nproc = 1;
};

/// Operations attempted and failed, and whether every operation that did
/// not fail returned the output the oracle computed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::uint64_t> failures;  ///< kind -> count

  /// An operation that returned an error, a refusal or nothing.
  void fail(const std::string& kind) {
    ++failed;
    ++failures[kind];
  }
  /// An operation that returned an output the oracle disagrees with.
  void wrong(const std::string& kind) {
    correct = false;
    fail(kind);
  }
  /// A check outside the counted operations disagreed with the oracle
  /// (a probe's output, the service counters).
  void mismatch(const std::string& kind) {
    correct = false;
    ++failures[kind];
  }
};

/// Metric name -> value, in insertion order.
using Metrics = std::vector<std::pair<std::string, double>>;

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// In-memory span record (name, start, end, parent; request spans share
/// the request id).  Written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t add(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t request = 0);
  /// Opens a span whose end is filled in by `close`.
  std::uint64_t open(std::string name, std::uint64_t parent = 0);
  void close(std::uint64_t id);
  /// Writes Chrome trace_event JSON.
  void write(const std::string& path) const;
  /// Self time per span name: duration minus the time covered by children.
  [[nodiscard]] std::map<std::string, std::pair<std::size_t, double>>
  self_ms_by_name() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;  ///< id = index + 1
};

// --- host (host.cpp) ------------------------------------------------------

/// Hardware threads this process may run on.
[[nodiscard]] unsigned affinity_threads();
[[nodiscard]] std::string cpu_model();
/// A fixed single-thread integer loop; its time tracks host speed.
[[nodiscard]] double ref_loop_ms();
/// Peak resident set of this process (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mib();
/// Bytes this process has passed to write() so far (/proc/self/io wchar).
[[nodiscard]] std::uint64_t bytes_written();

/// Runs child programs from a small helper process forked at start-up, so
/// a child's ru_maxrss is its own peak and not this process's (Linux
/// carries the parent's high-water mark across a fork + exec).
class ToolLauncher {
 public:
  struct Result {
    int exit_code = -1;  ///< -1 when killed by a signal
    double elapsed_ms = 0.0;
    double peak_rss_mib = 0.0;
  };
  ToolLauncher();
  ~ToolLauncher();
  ToolLauncher(const ToolLauncher&) = delete;
  ToolLauncher& operator=(const ToolLauncher&) = delete;

  /// Spawns argv with stdout and stderr sent to files; returns at exit.
  Result run(const std::vector<std::string>& argv,
             const std::string& stdout_path, const std::string& stderr_path);

 private:
  int to_helper_ = -1;
  int from_helper_ = -1;
  int helper_pid_ = -1;
};

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view text);

}  // namespace perfbench
