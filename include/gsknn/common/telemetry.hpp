// Kernel telemetry: per-phase timers, work counters and structured profiles
// for every GSKNN entry point.
//
// The paper's argument is a time-attribution argument (Table 5's
// Tcoll/Tgemm/Tsq2d/Theap breakdown, Fig. 4's model-vs-measured curves), so
// the kernel exposes the same attribution at runtime. Attach a KernelProfile
// to KnnConfig::profile and every kernel invocation *accumulates* into it:
//
//   telemetry::KernelProfile prof;
//   KnnConfig cfg;
//   cfg.profile = &prof;
//   knn_kernel(X, q, r, result, cfg);
//   puts(prof.format_table().c_str());   // Table-5-style breakdown
//   puts(prof.to_json().c_str());        // one-line structured profile
//
// Two instrumentation tiers:
//   * Phase timers — always available, runtime-gated: with no profile sink
//     attached the drivers skip every clock read, so the default path pays
//     one branch per cache-block, not per candidate.
//   * Work counters (candidates evaluated, heap pushes vs. root-rejects,
//     tiles, bytes packed) — live in the selection hot loops, so they are
//     compiled in only when the build defines GSKNN_PROFILE (CMake option
//     -DGSKNN_PROFILE=ON). kCountersEnabled reports the build mode;
//     KernelProfile::counters_enabled reports it per profile.
//
// One probe: every timed region of every driver is a PhaseScope, which
// brackets the region with a wall-clock pair, a PMU snapshot pair and a
// trace span, all under the same Phase and panel tags.
//
// Aggregation model: drivers record into per-thread, cache-line-padded
// ThreadCounters slots (no sharing, no atomics). Recorder::aggregate() then
// reduces them: phase_seconds[] takes the MAX across threads (a critical-path
// estimate — for a balanced static schedule the per-thread busy time of a
// parallel phase is the phase's wall time), phase_thread_seconds[] the SUM
// (total CPU spent), and counters the SUM (they are exact work tallies).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/pmu.hpp"

namespace gsknn::telemetry {

#if defined(GSKNN_PROFILE)
inline constexpr bool kCountersEnabled = true;
#else
inline constexpr bool kCountersEnabled = false;
#endif

/// Phases of the kNN kernel time breakdown. The fused kernel uses the first
/// five; the Algorithm-2.1 GEMM baseline maps its Table-5 columns onto the
/// same axis (Tcoll -> kCollect, Tgemm -> kMicro, Tsq2d -> kSq2d,
/// Theap -> kSelect), so both algorithms report through one schema.
enum class Phase : int {
  kPackQ = 0,  ///< packing the Qc query panel (+ query norms)
  kPackR,      ///< packing the Rc reference panel (+ reference norms)
  kMicro,      ///< micro-kernel flops (baseline: the GEMM call)
  kSelect,     ///< neighbor selection (zero for Var#1 — fused into kMicro)
  kMerge,      ///< merging private per-thread tables (parallel_refs)
  kCollect,    ///< baseline Tcoll: gathering Q/R into dense matrices
  kSq2d,       ///< baseline Tsq2d: adding the squared-norm terms
  kNumPhases,
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kNumPhases);

/// Stable lowercase identifier ("pack_q", "micro", ...) used in JSON.
const char* phase_name(Phase p);

/// Work counters (exact tallies, GSKNN_PROFILE builds only).
enum class Counter : int {
  kCandidates = 0,  ///< candidate (query, reference) pairs seen by selection
  kHeapPushes,      ///< candidates that passed the heap-root test: one
                    ///< replace-root insertion each on per-candidate rows;
                    ///< on batched Var#5/6 rows (heap::batch_select) the
                    ///< survivors of the root at the batch's start, which
                    ///< then enter one exact selection
  kRootRejects,     ///< candidates rejected (heap-root test or dedup)
  kTiles,           ///< micro-kernel tile invocations
  kBytesPackedQ,    ///< bytes written into packed Qc panels (+ norms)
  kBytesPackedR,    ///< bytes written into packed Rc panels (+ norms)
  kNumCounters,
};

inline constexpr int kCounterCount = static_cast<int>(Counter::kNumCounters);

const char* counter_name(Counter c);

/// One thread's private accumulator slot. Padded to (at least) a cache line
/// so concurrently-recording threads never false-share.
struct alignas(64) ThreadCounters {
  double phase[kPhaseCount] = {};
  std::uint64_t counter[kCounterCount] = {};
  /// Per-phase hardware-counter deltas (cycles, instructions, misses, ...)
  /// recorded by this thread's PmuGroup; all zero when perf is unavailable.
  std::uint64_t pmu[kPhaseCount][kPmuEventCount] = {};

  void add_phase(Phase p, double seconds) {
    phase[static_cast<int>(p)] += seconds;
  }
  void add(Counter c, std::uint64_t v) { counter[static_cast<int>(c)] += v; }
  void sub(Counter c, std::uint64_t v) { counter[static_cast<int>(c)] -= v; }
  void add_pmu(Phase p, const PmuCounts& delta) {
    for (int i = 0; i < kPmuEventCount; ++i) {
      pmu[static_cast<int>(p)][i] += delta.v[i];
    }
  }
};

/// Aggregated profile of one or more kernel invocations. Kernels *accumulate*
/// (phases, counters, wall time, invocations) so a sink can span a whole
/// solver run (e.g. every leaf kernel of an RKD-forest iteration); metadata
/// (shape, variant, blocking, ...) reflects the most recent invocation.
struct KernelProfile {
  // ---- metadata (last invocation) ----------------------------------------
  const char* algorithm = "";  ///< "gsknn", "gemm_baseline", ...
  const char* precision = "";  ///< "f64" or "f32"
  int m = 0, n = 0, d = 0, k = 0;
  int threads = 1;       ///< threads the kernel resolved to
  int variant = 0;       ///< resolved selection variant (1/2/3/5/6; 0 = n/a)
  int simd_level = 0;    ///< static_cast<int>(SimdLevel) the dispatch chose
  BlockingParams blocking;
  /// Workspace governance of the last invocation (docs/ROBUSTNESS.md):
  /// planned footprint, the cap it honored (0 = uncapped) and how many
  /// degradation-ladder steps the planner took to fit under it.
  std::size_t workspace_bytes = 0;
  std::size_t workspace_cap = 0;
  int workspace_retiles = 0;
  double model_gflops = 0.0;  ///< perf_model prediction for this shape (0 = n/a)
  /// Machine peaks from the perf-model parameters (roofline axes for
  /// tools/roofline_report.py); 0 when the recording driver has no model.
  double peak_gflops = 0.0;  ///< compute roof: MachineParams::peak_flops/1e9
  double peak_gbs = 0.0;     ///< streaming roof: 8 bytes / tau_b / 1e9

  // ---- accumulated measurements ------------------------------------------
  double wall_seconds = 0.0;                    ///< end-to-end kernel wall time
  double phase_seconds[kPhaseCount] = {};       ///< critical-path per phase
  double phase_thread_seconds[kPhaseCount] = {};///< total CPU per phase
  std::uint64_t counters[kCounterCount] = {};
  /// True once a counting (GSKNN_PROFILE) kernel build has recorded into
  /// this profile. Deliberately NOT defaulted from kCountersEnabled: the
  /// recording translation unit decides, so a profile constructed in a
  /// non-profiled consumer still reports the producing kernel's mode.
  bool counters_enabled = false;
  /// Per-phase hardware-counter totals (summed across threads) and whether
  /// any were actually collected. False whenever perf_event_open is denied
  /// (paranoid sysctl, seccomp, no PMU) or GSKNN_PMU=0 — the profile then
  /// degrades to timers + work counters with zero added overhead.
  std::uint64_t phase_pmu[kPhaseCount][kPmuEventCount] = {};
  bool pmu_enabled = false;
  std::uint64_t invocations = 0;

  // ---- accessors and derived metrics -------------------------------------
  double phase(Phase p) const { return phase_seconds[static_cast<int>(p)]; }
  std::uint64_t counter(Counter c) const {
    return counters[static_cast<int>(c)];
  }
  /// Sum of the attributed phase times (compare against wall_seconds; the
  /// difference is unattributed overhead: buffer setup, OpenMP fork/join).
  double phase_total() const;
  /// Unattributed wall time, clamped at zero.
  double other_seconds() const;
  /// Useful-flop rate the paper plots: (2d+3)*m*n / wall / 1e9. Uses the
  /// last invocation's shape, so it is meaningful for single-kernel sinks.
  double gflops() const;
  /// Fraction of the wall spent selecting (Var#1 reports 0 — fused).
  double selection_fraction() const;
  /// Packing bandwidth in GB/s (counters build only; 0 otherwise).
  double pack_bandwidth_gbs() const;

  // ---- PMU-derived metrics (all 0 when pmu_enabled is false) -------------
  std::uint64_t pmu(Phase p, PmuEvent e) const {
    return phase_pmu[static_cast<int>(p)][static_cast<int>(e)];
  }
  std::uint64_t pmu_total(PmuEvent e) const;
  /// Instructions retired per cycle, for one phase / over all phases.
  double phase_ipc(Phase p) const;
  double ipc() const;
  /// Misses per 1000 retired instructions (the usual MPKI normalization).
  double phase_mpki(Phase p, PmuEvent miss_event) const;
  double mpki(PmuEvent miss_event) const;
  /// LLC-miss traffic per cycle (64 B per missed line) — the memory-bound
  /// signal the roofline reporter plots against the bandwidth roof.
  double phase_bytes_per_cycle(Phase p) const;

  /// Accumulate another profile (sums measurements; adopts `other`'s
  /// metadata when this profile has not recorded an invocation yet).
  void merge(const KernelProfile& other);
  void reset() { *this = KernelProfile(); }

  /// One-line JSON object with every field above plus the derived metrics.
  std::string to_json() const;
  /// Human-readable Table-5-style breakdown (phases, % of wall, counters).
  std::string format_table() const;
};

class TraceSink;  // gsknn/common/trace.hpp

/// Driver-side recording helper: per-thread slots plus the call's wall
/// clock. An inactive (null sink) recorder allocates nothing, reads no clock
/// and hands out null slots, which make every PhaseScope on them inactive:
///
///   Recorder rec(cfg.profile, threads);
///   ... { PhaseScope s(Phase::kMicro, rec.slot(tid), cfg.trace, ic, jc);
///         ...region... }
///   rec.aggregate();
class Recorder {
 public:
  /// `sink == nullptr` produces an inactive recorder (no allocation).
  Recorder(KernelProfile* sink, int threads);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool active() const { return sink_ != nullptr; }
  int threads() const { return threads_; }

  /// Thread tid's private slot, tid in [0, threads); null when inactive.
  ThreadCounters* slot(int tid) {
    return slots_ == nullptr ? nullptr : &slots_[tid];
  }

  /// Reduce the slots into the sink (max-of-threads phase times, summed
  /// thread-seconds and counters) and add the wall time since construction
  /// and one invocation. No-op when inactive.
  void aggregate();

 private:
  KernelProfile* sink_ = nullptr;
  ThreadCounters* slots_ = nullptr;
  int threads_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// RAII bracket of one region: the wall time, the PMU delta (when the host
/// grants perf counters) and a trace span, all tagged with one Phase and the
/// panel indices `a`/`b`. Time and PMU go to `slot`, the span to `trace`;
/// either may be null, and with both null the scope reads no clock and no
/// counter. A scope built on a parent is carved out of it: it records under
/// its own phase and the parent records its region minus the children's
/// time and PMU deltas (how a select nested in the micro phase is split off).
class PhaseScope {
 public:
  PhaseScope(Phase phase, ThreadCounters* slot, TraceSink* trace, int a = -1,
             int b = -1)
      : phase_(phase), slot_(slot), trace_(trace), a_(a), b_(b) {
    if (slot_ != nullptr || trace_ != nullptr) open();
  }
  PhaseScope(Phase phase, PhaseScope& parent, int a = -1, int b = -1)
      : PhaseScope(phase, parent.slot_, parent.trace_, a, b) {
    parent_ = &parent;
  }
  ~PhaseScope() { close(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Record the region now instead of at scope exit (idempotent).
  void close() {
    if (open_) finish();
  }

 private:
  void open();
  void finish();

  Phase phase_;
  ThreadCounters* slot_;
  TraceSink* trace_;
  PhaseScope* parent_ = nullptr;
  int a_, b_;
  bool open_ = false;
  bool pmu_ = false;  ///< the opening PMU snapshot succeeded
  std::uint64_t ts0_ = 0;
  std::chrono::steady_clock::time_point t0_;
  PmuCounts pmu0_;
  double carved_secs_ = 0.0;
  PmuCounts carved_pmu_;
};

/// Name of a SimdLevel integer as stored in KernelProfile::simd_level.
const char* simd_level_name(int level);

}  // namespace gsknn::telemetry
