// Shared pieces of the perfbench binary: options, the metric report, sample
// statistics, peak RSS and the benchmark-side slowdown injector.
//
// Every timing here is taken from outside the library, around calls into
// one layer; the library's own counters are read only through its public
// sinks (Server::stats, PackedRefs::Stats, AllNnResult, KnnConfig::profile).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gsknn/common/telemetry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Benchmark-side slowdown: every timed knn_kernel call of the kernel
  /// workload is followed by a busy wait of this fraction of its own
  /// duration. Used only by the self-test that proves the gate sees 10%.
  double inject = 0.0;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (Python's statistics "inclusive" method).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The run's outcome: the metrics it measured, by name, plus the
/// correctness tally that becomes the result line's correct/attempted/failed.
/// Which metrics a result line carries, and their units, is BENCHMARK.json's
/// business: perfbench/run.py checks and completes this report against it.
struct Report {
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< refused + non-kOk + wrong
  std::uint64_t wrong = 0;    ///< results that failed verification
  std::vector<std::string> notes;  ///< human-readable summary lines

  void set(const std::string& name, double v, const std::string& unit) {
    for (Entry& e : metrics) {
      if (e.name == name) {
        e.value = v;
        e.unit = unit;
        return;
      }
    }
    metrics.push_back({name, v, unit});
  }
};

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

/// The PMU view of a traced kernel profile (instructions per cycle, LLC
/// misses per 1000 instructions) as a `# pmu` summary line, or a note that
/// perf_event is unavailable. Not a metric: the result line holds numbers
/// only, and a host without the PMU has none to give.
void note_pmu(const gsknn::telemetry::KernelProfile& prof, Report& rep);

/// Cold set-ups: runs `setup` once in each of `n` child processes, one after
/// another, and returns the seconds each reported. Each child is a fresh
/// fork of this process, so it pays what a first call pays (thread-pool
/// spin-up, first touch of workspaces) every time. Call it before this
/// process has started any thread or OpenMP team. Throws if a child fails.
std::vector<double> cold_setups(int n, const std::function<double()>& setup);

/// Run `fn`, then busy-wait `inject` × its duration. Returns the padded
/// duration in seconds.
template <typename Fn>
double timed_call(double inject, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const double t = seconds_since(t0);
  if (inject > 0.0) {
    const Clock::time_point until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(inject * t));
    while (Clock::now() < until) {
    }
    return seconds_since(t0);
  }
  return t;
}

/// Useful flops of one m × n kernel call in dimension d: (2d + 3)·m·n.
inline double useful_flops(double m, double n, double d) {
  return (2.0 * d + 3.0) * m * n;
}

void run_serve(const Options& opt, Report& rep);
void run_allnn(const Options& opt, Report& rep);
void run_kernel(const Options& opt, Report& rep);

}  // namespace perfbench
