#include "gsknn/tree/rkd_forest.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/common/rng.hpp"
#include "gsknn/common/timer.hpp"
#include "gsknn/core/packed_refs.hpp"

namespace gsknn::tree {

namespace {

/// Projection of point `id` onto a (non-normalized) direction vector.
double project(const PointTable& X, const double* dir, int id) {
  const double* x = X.col(id);
  double s = 0.0;
  for (int r = 0; r < X.dim(); ++r) s += dir[r] * x[r];
  return s;
}

/// Recursive median split of ids[lo, hi) along randomized directions.
void split_recursive(const PointTable& X, std::vector<int>& ids,
                     std::vector<double>& proj, int lo, int hi, int leaf_size,
                     int split_candidates, Xoshiro256& rng,
                     std::vector<std::vector<int>>& leaves) {
  const int count = hi - lo;
  if (count <= leaf_size) {
    leaves.emplace_back(ids.begin() + lo, ids.begin() + hi);
    return;
  }

  const int d = X.dim();
  // Sample a few random Gaussian directions; keep the one with the largest
  // projected spread (a cheap variance proxy on a point sample).
  std::vector<double> best_dir(static_cast<std::size_t>(d));
  double best_spread = -1.0;
  std::vector<double> dir(static_cast<std::size_t>(d));
  const int probe = std::min(count, 64);
  for (int c = 0; c < std::max(1, split_candidates); ++c) {
    for (double& v : dir) v = rng.normal();
    double mn = 1e300, mx = -1e300;
    for (int s = 0; s < probe; ++s) {
      const int id = ids[static_cast<std::size_t>(lo) +
                         rng.below(static_cast<std::uint64_t>(count))];
      const double p = project(X, dir.data(), id);
      mn = std::min(mn, p);
      mx = std::max(mx, p);
    }
    if (mx - mn > best_spread) {
      best_spread = mx - mn;
      best_dir = dir;
    }
  }

  for (int i = lo; i < hi; ++i) {
    proj[static_cast<std::size_t>(i)] =
        project(X, best_dir.data(), ids[static_cast<std::size_t>(i)]);
  }
  const int mid = lo + count / 2;
  // Median split via nth_element over an index permutation of [lo, hi).
  std::vector<int> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), lo);
  std::nth_element(order.begin(), order.begin() + (mid - lo), order.end(),
                   [&](int a, int b) {
                     return proj[static_cast<std::size_t>(a)] <
                            proj[static_cast<std::size_t>(b)];
                   });
  std::vector<int> reordered(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    reordered[static_cast<std::size_t>(i)] =
        ids[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  }
  std::copy(reordered.begin(), reordered.end(), ids.begin() + lo);

  split_recursive(X, ids, proj, lo, mid, leaf_size, split_candidates, rng,
                  leaves);
  split_recursive(X, ids, proj, mid, hi, leaf_size, split_candidates, rng,
                  leaves);
}

}  // namespace

std::vector<std::vector<int>> random_kd_partition(const PointTable& X,
                                                  int leaf_size,
                                                  std::uint64_t seed,
                                                  int split_candidates) {
  assert(leaf_size > 0);
  const int n = X.size();
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<double> proj(static_cast<std::size_t>(n));
  Xoshiro256 rng(seed);
  std::vector<std::vector<int>> leaves;
  split_recursive(X, ids, proj, 0, n, leaf_size, split_candidates, rng,
                  leaves);
  return leaves;
}

namespace {

AllNnResult all_nn_impl(const PointTable& X, int k, const RkdConfig& cfg) {
  if (k < 1) {
    throw StatusError(Status::kBadConfig, "gsknn: rkd solver requires k >= 1");
  }
  if (cfg.leaf_size < 1 || cfg.num_trees < 1) {
    throw StatusError(Status::kBadConfig,
                      "gsknn: rkd solver requires leaf_size >= 1 and "
                      "num_trees >= 1");
  }
  if (cfg.sweeps < 1) {
    throw StatusError(Status::kBadConfig,
                      "gsknn: rkd solver requires sweeps >= 1");
  }
  AllNnResult out;
  const int n = X.size();
  // Large k pairs with the 4-ary heap (paper §2.4 / §3 parameters).
  const HeapArity arity = (k > 512) ? HeapArity::kQuad : HeapArity::kBinary;
  // The GEMM baseline's selection path requires binary rows.
  out.table.resize(n, k,
                   cfg.backend == KernelBackend::kGemmBaseline
                       ? HeapArity::kBinary
                       : arity);

  out.table.enable_dedup_index();  // O(1) cross-iteration dedup

  KnnConfig kcfg = cfg.kernel;
  kcfg.dedup = true;  // leaves overlap across trees

  WallTimer timer;
  for (int t = 0; t < cfg.num_trees; ++t) {
    timer.start();
    const auto leaves = random_kd_partition(
        X, cfg.leaf_size, cfg.seed * 0x9E3779B9ull + static_cast<std::uint64_t>(t) + 1,
        cfg.split_candidates);
    out.build_seconds += timer.seconds();

    // Per-leaf panel caches (pack_cache): each leaf's references pack on the
    // first sweep and are served resident on every later sweep of this tree
    // (sweeps re-visit the same partition; dedup makes that idempotent, so
    // the table is bitwise-identical to a single uncached pass).
    const bool cached =
        cfg.pack_cache && cfg.backend == KernelBackend::kGsknn;
    std::vector<std::unique_ptr<PackedRefs>> caches;
    if (cached) caches.resize(leaves.size());

    timer.start();
    for (int sweep = 0; sweep < cfg.sweeps && out.status == Status::kOk;
         ++sweep) {
      for (std::size_t li = 0; li < leaves.size(); ++li) {
        const auto& leaf = leaves[li];
        if (leaf.size() < 2) continue;
        if (cfg.backend == KernelBackend::kGemmBaseline) {
          // The baseline has no internal polling; govern it at leaf
          // granularity here so a deadline still unwinds the solve cleanly.
          out.status = core::poll_stop(kcfg);
          if (out.status != Status::kOk) break;
          knn_gemm_baseline(X, leaf, leaf, out.table, kcfg, leaf);
        } else if (cached) {
          if (caches[li] == nullptr) {
            caches[li] = std::make_unique<PackedRefs>();
            PackedRefs::Options opt;
            opt.norm = kcfg.norm;
            opt.blocking = kcfg.blocking;
            opt.budget_bytes = cfg.pack_cache_budget;
            const Status b = caches[li]->build(X, leaf, opt);
            if (b != Status::kOk) {
              out.status = b;
              break;
            }
          }
          const Status s =
              knn_kernel_status(*caches[li], leaf, out.table, kcfg, leaf);
          if (s != Status::kOk) {
            out.status = s;
            break;
          }
        } else {
          const Status s = knn_kernel_status(X, leaf, leaf, out.table, kcfg,
                                             leaf);
          if (s != Status::kOk) {
            out.status = s;
            break;
          }
        }
        ++out.leaves_processed;
      }
    }
    out.kernel_seconds += timer.seconds();
    for (const auto& cache : caches) {
      if (cache == nullptr) continue;
      const PackedRefs::Stats st = cache->stats();
      out.pack_hits += st.hits;
      out.pack_misses += st.misses;
      out.pack_bytes += st.bytes_packed;
    }
    if (out.status != Status::kOk) break;
  }
  return out;
}

}  // namespace

AllNnResult all_nearest_neighbors(const PointTable& X, int k,
                                  const RkdConfig& cfg) {
  // The solver reports governance statuses in the result rather than by
  // throwing (config errors aside): the entry bracket records that status.
  AllNnResult out;
  core::record_entry_status(metrics::EntryPoint::kRkdForest, X.size(),
                            X.size(), X.dim(), k, [&] {
                              out = all_nn_impl(X, k, cfg);
                              return out.status;
                            });
  return out;
}

double recall_at_k(const PointTable& X, const NeighborTable& approx, int k,
                   int samples, std::uint64_t seed) {
  const int n = X.size();
  samples = std::min(samples, n);
  Xoshiro256 rng(seed);
  std::vector<int> queries;
  queries.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    queries.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(n))));
  }
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);

  // Exact ground truth with the kernel itself (exhaustive references).
  NeighborTable exact(samples, k);
  knn_kernel(X, queries, all, exact, {});

  long hits = 0;
  long total = 0;
  for (int s = 0; s < samples; ++s) {
    const auto truth = exact.sorted_row(s);
    std::unordered_set<int> approx_ids;
    for (const auto& [dist, id] : approx.sorted_row(queries[static_cast<std::size_t>(s)])) {
      approx_ids.insert(id);
    }
    for (const auto& [dist, id] : truth) {
      total += 1;
      hits += approx_ids.count(id) ? 1 : 0;
    }
  }
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 1.0;
}

}  // namespace gsknn::tree
