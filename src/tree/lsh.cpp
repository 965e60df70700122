#include "gsknn/tree/lsh.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/common/rng.hpp"
#include "gsknn/common/timer.hpp"

namespace gsknn::tree {

namespace {

/// One table's hash of a point: g quantized Gaussian projections folded into
/// a single 64-bit key (FNV-style mixing; collisions only merge buckets,
/// which costs recall nothing and time little).
std::uint64_t hash_point(const PointTable& X, int id, const double* w,
                         const double* b, int g, double width) {
  const double* x = X.col(id);
  const int d = X.dim();
  std::uint64_t key = 0xCBF29CE484222325ull;
  for (int h = 0; h < g; ++h) {
    const double* wh = w + static_cast<long>(h) * d;
    double s = b[h];
    for (int r = 0; r < d; ++r) s += wh[r] * x[r];
    const auto q = static_cast<std::int64_t>(std::floor(s / width));
    key ^= static_cast<std::uint64_t>(q) + 0x9E3779B97F4A7C15ull + (key << 6) +
           (key >> 2);
  }
  return key;
}

AllNnResult lsh_impl(const PointTable& X, int k, const LshConfig& cfg) {
  if (k < 1) {
    throw StatusError(Status::kBadConfig, "gsknn: lsh solver requires k >= 1");
  }
  if (cfg.tables < 1 || cfg.max_group < 2 ||
      !(std::isfinite(cfg.bucket_width) && cfg.bucket_width > 0.0)) {
    throw StatusError(Status::kBadConfig,
                      "gsknn: lsh solver requires tables >= 1, max_group >= 2 "
                      "and a finite bucket_width > 0");
  }
  AllNnResult out;
  const int n = X.size();
  const int d = X.dim();
  out.table.resize(n, k,
                   (k > 512 && cfg.backend != KernelBackend::kGemmBaseline)
                       ? HeapArity::kQuad
                       : HeapArity::kBinary);

  out.table.enable_dedup_index();  // O(1) cross-iteration dedup

  KnnConfig kcfg = cfg.kernel;
  kcfg.dedup = true;

  Xoshiro256 rng(cfg.seed ^ 0x15AB17E5ull);
  const int g = std::max(1, cfg.hashes_per_table);
  std::vector<double> w(static_cast<std::size_t>(g) * d);
  std::vector<double> b(static_cast<std::size_t>(g));

  WallTimer timer;
  for (int t = 0; t < cfg.tables; ++t) {
    timer.start();
    for (double& v : w) v = rng.normal();
    for (double& v : b) v = rng.uniform(0.0, cfg.bucket_width);

    std::unordered_map<std::uint64_t, std::vector<int>> buckets;
    buckets.reserve(static_cast<std::size_t>(n) / 4 + 1);
    for (int i = 0; i < n; ++i) {
      buckets[hash_point(X, i, w.data(), b.data(), g, cfg.bucket_width)]
          .push_back(i);
    }
    out.build_seconds += timer.seconds();

    timer.start();
    for (auto& [key, bucket] : buckets) {
      if (bucket.size() < 2) continue;
      // Chunk oversized buckets; chunks overlap by half so near neighbors on
      // a chunk boundary still meet.
      const int bs = static_cast<int>(bucket.size());
      const int step = std::max(1, cfg.max_group / 2);
      for (int lo = 0; lo < bs; lo += step) {
        const int hi = std::min(bs, lo + cfg.max_group);
        if (hi - lo < 2) break;
        const std::span<const int> group(bucket.data() + lo,
                                         static_cast<std::size_t>(hi - lo));
        if (cfg.backend == KernelBackend::kGemmBaseline) {
          // Baseline has no internal polling; govern at group granularity.
          out.status = core::poll_stop(kcfg);
          if (out.status != Status::kOk) break;
          knn_gemm_baseline(X, group, group, out.table, kcfg, group);
        } else {
          const Status s = knn_kernel_status(X, group, group, out.table, kcfg,
                                             group);
          if (s != Status::kOk) {
            out.status = s;
            break;
          }
        }
        ++out.leaves_processed;
        if (hi == bs) break;
      }
      if (out.status != Status::kOk) break;
    }
    out.kernel_seconds += timer.seconds();
    if (out.status != Status::kOk) break;
  }
  return out;
}

}  // namespace

AllNnResult lsh_all_nearest_neighbors(const PointTable& X, int k,
                                      const LshConfig& cfg) {
  // Same bracket as the rkd solver: the Status rides in the result.
  AllNnResult out;
  core::record_entry_status(metrics::EntryPoint::kLsh, X.size(), X.size(),
                            X.dim(), k, [&] {
                              out = lsh_impl(X, k, cfg);
                              return out.status;
                            });
  return out;
}

}  // namespace gsknn::tree
