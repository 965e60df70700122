// allnn: the Table-1 solve — approximate all-nearest-neighbors by a forest
// of randomized KD-trees, exact Var#1 kernels inside every leaf.
#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/model/perf_model.hpp"
#include "gsknn/tree/rkd_forest.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

constexpr int kDim = 64;
constexpr int kPoints = 32768;
constexpr int kIntrinsic = 10;
constexpr int kK = 16;
constexpr int kLeaf = 1024;
constexpr int kTrees = 8;
/// Kernel threads. Each leaf kernel is a parallel region of a few ms, so at
/// more than one thread a solve wakes sleeping worker threads hundreds of
/// times, and on a shared virtual machine each wake of a halted vCPU waits
/// for the hypervisor: at two threads, 8% steal slowed a solve by 40%. One
/// thread leaves the solve's time to its own work.
constexpr int kThreads = 1;
/// Cold set-ups per untraced run, each in a fresh child process.
constexpr int kSetups = 3;
/// Single-tree solves per side of the selection-share estimate.
constexpr int kSelectSolves = 3;
/// Solves keep starting until the run's time is up, but at least this many.
constexpr int kMinSolves = 5;
constexpr int kRecallSamples = 256;
/// Quality guard: recall@16 of this configuration is ~0.96-0.97.
constexpr double kRecallFloor = 0.90;

/// Rows must hold k neighbors in ascending (dist, id) order with no
/// duplicate id and finite, non-negative distances.
std::uint64_t invalid_rows(const gsknn::NeighborTable& t) {
  std::uint64_t bad = 0;
  std::vector<int> ids;
  for (int i = 0; i < kPoints; ++i) {
    const auto row = t.sorted_row(i);
    bool ok = static_cast<int>(row.size()) == kK;
    ids.clear();
    for (std::size_t j = 0; ok && j < row.size(); ++j) {
      ok = std::isfinite(row[j].first) && row[j].first >= 0.0 &&
           (j == 0 || row[j - 1] < row[j]);
      ids.push_back(row[j].second);
    }
    std::sort(ids.begin(), ids.end());
    ok = ok && std::adjacent_find(ids.begin(), ids.end()) == ids.end();
    if (!ok) ++bad;
  }
  return bad;
}

struct Solve {
  double wall_s = 0.0;
  gsknn::tree::AllNnResult res;
};

Solve solve(const gsknn::PointTable& X, const gsknn::tree::RkdConfig& cfg,
            int k) {
  Solve s;
  const Clock::time_point t0 = Clock::now();
  s.res = gsknn::tree::all_nearest_neighbors(X, k, cfg);
  s.wall_s = seconds_since(t0);
  return s;
}

}  // namespace

void run_allnn(const Options& opt, Report& rep) {
  const gsknn::PointTable X =
      gsknn::make_gaussian_embedded(kDim, kPoints, kIntrinsic, opt.seed);
  const int threads =
      std::min(kThreads, static_cast<int>(std::thread::hardware_concurrency()));
  gsknn::tree::RkdConfig cfg;
  cfg.leaf_size = kLeaf;
  cfg.num_trees = kTrees;
  cfg.seed = opt.seed;
  cfg.kernel.threads = threads;

  // Set-up: the first call, a single-tree solve, which pays OpenMP spin-up
  // and first touch of the workspace and result table. Untraced runs repeat
  // it cold in child processes and report the median with their own.
  gsknn::tree::RkdConfig one = cfg;
  one.num_trees = 1;
  std::vector<double> setups;
  if (!opt.trace) {
    setups = cold_setups(kSetups, [&] { return solve(X, one, kK).wall_s; });
  }
  setups.push_back(solve(X, one, kK).wall_s);

  // Solves run until --seconds have passed; a traced run spends the first
  // half untraced and attaches the kernel profile in the second half.
  std::vector<double> walls, traced_walls, build_s, kernel_s;
  gsknn::telemetry::KernelProfile prof;
  int leaves = 0;
  gsknn::NeighborTable last;
  auto run_solves = [&](double budget, bool traced) {
    gsknn::tree::RkdConfig c = cfg;
    if (traced) c.kernel.profile = &prof;
    std::vector<double>& out = traced ? traced_walls : walls;
    const Clock::time_point t0 = Clock::now();
    while (out.size() < kMinSolves || seconds_since(t0) < budget) {
      Solve s = solve(X, c, kK);
      ++rep.attempted;
      if (s.res.status != gsknn::Status::kOk) ++rep.failed;
      out.push_back(s.wall_s);
      if (traced) {
        build_s.push_back(s.res.build_seconds);
        kernel_s.push_back(s.res.kernel_seconds);
      }
      leaves = s.res.leaves_processed;
      last = std::move(s.res.table);
    }
  };
  run_solves(opt.trace ? opt.seconds / 2 : opt.seconds, false);
  if (opt.trace) run_solves(opt.seconds / 2, true);
  const std::size_t solves = walls.size() + traced_walls.size();

  const std::uint64_t bad = invalid_rows(last);
  const double recall =
      gsknn::tree::recall_at_k(X, last, kK, kRecallSamples, opt.seed + 1);
  const std::uint64_t wrong = (bad > 0 ? 1 : 0) + (recall < kRecallFloor ? 1 : 0);
  rep.wrong += wrong;
  rep.failed += wrong;
  rep.notes.push_back(std::to_string(solves) + " solves, " +
                      std::to_string(leaves) + " leaves, recall_at_k " +
                      std::to_string(recall) + " (floor " +
                      std::to_string(kRecallFloor) + "), invalid rows " +
                      std::to_string(bad));

  // Useful flops per solve at the mean leaf size (median splits make the
  // leaves equal here: 32768 points / 1024 = 32 leaves per tree).
  const double mean_leaf =
      static_cast<double>(kPoints) * kTrees / std::max(1, leaves);
  const double flops = useful_flops(mean_leaf, mean_leaf, kDim) * leaves;
  const double solve_s = median(walls);

  if (!opt.trace) {
    rep.set("setup_s", median(setups), "s");
    rep.set("p50_ms", solve_s * 1e3, "ms");
    rep.set("useful_gflops", flops / solve_s / 1e9, "GFLOP/s");
    rep.notes.push_back("solve_s " + std::to_string(solve_s) +
                        ", recall_at_k " + std::to_string(recall));
    return;
  }

  const double traced_s = median(traced_walls);
  const double part_s = median(build_s);
  const double kern_s = median(kernel_s);
  const double n_traced = static_cast<double>(traced_walls.size());
  rep.set("tree.partition_s", part_s, "s");
  rep.set("tree.kernel_s", kern_s, "s");
  rep.set("tree.kernel_share", kern_s / traced_s, "ratio");
  rep.set("tree.leaves", leaves, "count");
  rep.set("tree.recall_at_k", recall, "ratio");
  rep.set("trace.tree_reconcile", (part_s + kern_s) / traced_s, "ratio");
  rep.set("trace.overhead_frac", (traced_s - solve_s) / solve_s, "ratio");
  {
    const Clock::time_point t0 = Clock::now();
    const auto parts = gsknn::tree::random_kd_partition(X, kLeaf, opt.seed);
    rep.set("tree.partition_call_s", seconds_since(t0), "s");
    (void)parts;
  }

  // Kernel-layer view of the traced solves, per solve.
  using gsknn::telemetry::Phase;
  rep.set("core.pack_q_s", prof.phase(Phase::kPackQ) / n_traced, "s");
  rep.set("core.pack_r_s", prof.phase(Phase::kPackR) / n_traced, "s");
  rep.set("core.micro_s", prof.phase(Phase::kMicro) / n_traced, "s");
  rep.set("core.select_s", prof.phase(Phase::kSelect) / n_traced, "s");
  rep.set("core.flops", flops, "flop");
  // Each leaf packs its queries and references once (leaf < n_c), values
  // plus squared norms, 8 bytes each.
  rep.set("core.bytes_packed_computed",
          2.0 * 8.0 * mean_leaf * (kDim + 1) * leaves, "bytes");
  const double peak = gsknn::model::calibrate(threads).peak_flops;
  rep.set("core.micro_frac_of_peak",
          flops * n_traced / prof.phase(Phase::kMicro) / peak, "ratio");
  note_pmu(prof, rep);

  // Table 5's selection-share estimate, 1 - T(k=1)/T(k), on single-tree
  // solves timed from outside.
  std::vector<double> t1, tk;
  for (int i = 0; i < kSelectSolves; ++i) {
    t1.push_back(solve(X, one, 1).wall_s);
    tk.push_back(solve(X, one, kK).wall_s);
  }
  rep.set("select.est_share.allnn", 1.0 - median(t1) / median(tk), "ratio");
}

}  // namespace perfbench
