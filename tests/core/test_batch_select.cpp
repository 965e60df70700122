// Batched exact top-k for materialized rows (gsknn/select/batch_select.hpp)
// against sequential insertion, the contract it must reproduce: every row
// holds the same (distance, id) entries, bit for bit, after any sequence of
// calls — on hand-built rows (ties, negative and signed-zero distances,
// k > n sentinels, NaN/±Inf, rows carried across calls) and through the
// kernel, where Var#5/6 take the batched path above kBatchSelectMinK while
// Var#1 and Var#3 offer candidates one by one. Registered at every SIMD
// level and again under OMP_NUM_THREADS=3.
#include "gsknn/select/batch_select.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "gsknn/common/telemetry.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/core/workspace.hpp"
#include "gsknn/data/generators.hpp"

namespace gsknn {
namespace {

constexpr int kMinK = 128;  // the driver's kBatchSelectMinK

/// One heap row in either physical layout, starting empty (+inf, -1).
template <typename T>
struct Row {
  int k;
  HeapArity arity;
  std::vector<T> d;
  std::vector<int> x;

  Row(int k_, HeapArity a)
      : k(k_),
        arity(a),
        d(static_cast<std::size_t>(stride()),
          std::numeric_limits<T>::infinity()),
        x(static_cast<std::size_t>(stride()), -1) {}

  int stride() const {
    return arity == HeapArity::kQuad ? heap::quad_physical_size(k) : k;
  }

  /// Sequential insertion: each candidate offered to the live root.
  void offer_each(const std::vector<T>& c, const std::vector<int>& ids) {
    for (std::size_t j = 0; j < c.size(); ++j) {
      if (!heap::pair_accepts(c[j], ids[j], d[0], x[0])) continue;
      if (arity == HeapArity::kQuad) {
        heap::quad_replace_root(d.data(), x.data(), k, c[j], ids[j]);
      } else {
        heap::binary_replace_root(d.data(), x.data(), k, c[j], ids[j]);
      }
    }
  }

  int offer_batch(const std::vector<T>& c, const std::vector<int>& ids) {
    const int len = static_cast<int>(c.size());
    std::vector<T> sd(heap::batch_scratch_len(len, k));
    std::vector<int> sid(sd.size());
    return heap::batch_select(c.data(), ids.data(), len, d.data(), x.data(),
                              k, arity, sd.data(), sid.data());
  }

  /// All k entries (sentinels included) in (distance, id) order, distances
  /// as raw bits so a -0.0 / +0.0 swap would show.
  std::vector<std::pair<std::uint64_t, int>> sorted_bits() const {
    std::vector<std::pair<T, int>> v;
    for (int l = 0; l < k; ++l) {
      const int p = arity == HeapArity::kQuad ? heap::quad_phys(l) : l;
      v.emplace_back(d[static_cast<std::size_t>(p)],
                     x[static_cast<std::size_t>(p)]);
    }
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return heap::pair_less(a.first, a.second, b.first, b.second);
    });
    std::vector<std::pair<std::uint64_t, int>> out;
    for (const auto& e : v) {
      std::uint64_t bits = 0;
      if constexpr (sizeof(T) == 8) {
        bits = std::bit_cast<std::uint64_t>(e.first);
      } else {
        bits = std::bit_cast<std::uint32_t>(e.first);
      }
      out.emplace_back(bits, e.second);
    }
    return out;
  }

  bool is_heap() const {
    return arity == HeapArity::kQuad ? heap::quad_is_heap(d.data(), k)
                                     : heap::binary_is_heap(d.data(), k);
  }
};

/// Feed the same call sequence to a sequential and a batched row and check
/// they agree after every call.
template <typename T>
void expect_same_rows(int k, const std::vector<std::vector<T>>& calls,
                      const std::vector<std::vector<int>>& ids) {
  for (const HeapArity arity : {HeapArity::kBinary, HeapArity::kQuad}) {
    Row<T> seq(k, arity);
    Row<T> bat(k, arity);
    for (std::size_t c = 0; c < calls.size(); ++c) {
      seq.offer_each(calls[c], ids[c]);
      const int pushed = bat.offer_batch(calls[c], ids[c]);
      EXPECT_GE(pushed, 0);
      EXPECT_LE(pushed, static_cast<int>(calls[c].size()));
      ASSERT_EQ(bat.sorted_bits(), seq.sorted_bits())
          << "k " << k << " arity " << static_cast<int>(arity) << " call "
          << c;
      ASSERT_TRUE(bat.is_heap()) << "call " << c;
    }
  }
}

template <typename T>
void expect_same_rows(int k, const std::vector<T>& cand,
                      const std::vector<int>& ids) {
  expect_same_rows<T>(k, std::vector<std::vector<T>>{cand},
                      std::vector<std::vector<int>>{ids});
}

std::vector<int> iota_ids(int count, int from = 0) {
  std::vector<int> v(static_cast<std::size_t>(count));
  std::iota(v.begin(), v.end(), from);
  return v;
}

template <typename T>
class BatchSelectRows : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(BatchSelectRows, Scalars);

// Every distance equal (d = 0, duplicate points): only the ids decide, and
// a duplicated id may fill several slots.
TYPED_TEST(BatchSelectRows, AllEqualDistances) {
  using T = TypeParam;
  std::mt19937 rng(11);
  std::vector<int> ids = iota_ids(600, 40);
  std::shuffle(ids.begin(), ids.end(), rng);
  expect_same_rows<T>(200, std::vector<T>(600, T(0)), ids);
  std::vector<int> dup(600);
  for (int j = 0; j < 600; ++j) dup[static_cast<std::size_t>(j)] = (j * 7) % 37;
  expect_same_rows<T>(kMinK, std::vector<T>(600, T(0)), dup);
}

// Cosine distances dip below zero by rounding; -0.0 must tie with +0.0 and
// keep its own bits.
TYPED_TEST(BatchSelectRows, NegativeAndSignedZeroDistances) {
  using T = TypeParam;
  std::mt19937 rng(12);
  std::uniform_real_distribution<double> u(-1e-6, 2.0);
  std::vector<T> c(900);
  for (auto& v : c) v = static_cast<T>(u(rng));
  for (std::size_t j = 0; j < c.size(); j += 9) c[j] = T(-0.0);
  for (std::size_t j = 4; j < c.size(); j += 9) c[j] = T(0.0);
  for (std::size_t j = 2; j < c.size(); j += 11) c[j] = T(-1e-16);
  std::vector<int> ids = iota_ids(900);
  std::shuffle(ids.begin(), ids.end(), rng);
  expect_same_rows<T>(150, c, ids);
  expect_same_rows<T>(400, c, ids);
}

// k > n: the row keeps +inf sentinels until enough calls have filled it.
TYPED_TEST(BatchSelectRows, KAboveCandidatesKeepsSentinels) {
  using T = TypeParam;
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> u(0.0, 10.0);
  std::vector<std::vector<T>> calls;
  std::vector<std::vector<int>> ids;
  for (int c = 0; c < 4; ++c) {
    calls.emplace_back(120);
    for (auto& v : calls.back()) v = static_cast<T>(u(rng));
    ids.push_back(iota_ids(120, 1000 * c));
  }
  expect_same_rows<T>(300, calls, ids);
}

// NaN and ±Inf never enter a row, however many there are.
TYPED_TEST(BatchSelectRows, NonFiniteCandidatesNeverEnter) {
  using T = TypeParam;
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  std::mt19937 rng(14);
  std::uniform_real_distribution<double> u(0.0, 5.0);
  std::vector<T> c(1000);
  for (std::size_t j = 0; j < c.size(); ++j) {
    const int kind = static_cast<int>(j % 10);
    c[j] = kind == 0 ? nan : kind == 1 ? inf : kind == 2 ? -inf
                                              : static_cast<T>(u(rng));
  }
  expect_same_rows<T>(kMinK, c, iota_ids(1000));
  expect_same_rows<T>(900, c, iota_ids(1000));  // more slots than finite
  expect_same_rows<T>(kMinK, std::vector<T>(300, nan), iota_ids(300));
}

// A row carried across calls, as Var#5's panels and repeated kernel calls
// do: later calls meet a filled heap, so few candidates survive the root
// filter, some of them on ties at the root.
TYPED_TEST(BatchSelectRows, PrefilledRowAcrossCalls) {
  using T = TypeParam;
  std::mt19937 rng(15);
  std::uniform_int_distribution<int> tie(0, 40);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::vector<T>> calls;
  std::vector<std::vector<int>> ids;
  for (int c = 0; c < 8; ++c) {
    const int len = 64 + 97 * c;
    calls.emplace_back(static_cast<std::size_t>(len));
    for (auto& v : calls.back()) {
      v = (c % 2 == 0) ? static_cast<T>(tie(rng))
                       : static_cast<T>(u(rng) * 40.0 / (c + 1));
    }
    ids.emplace_back(static_cast<std::size_t>(len));
    for (auto& x : ids.back()) x = static_cast<int>(rng() % 5000);
  }
  expect_same_rows<T>(kMinK, calls, ids);
  expect_same_rows<T>(512, calls, ids);
}

// Random rows over wide value ranges (subnormal to overflow, both signs)
// with repeated ids, every k including the small ones the driver never
// batches.
TYPED_TEST(BatchSelectRows, RandomRowsMatchSequentialInsertion) {
  using T = TypeParam;
  std::mt19937_64 rng(16);
  for (int trial = 0; trial < 60; ++trial) {
    const int k = 1 + static_cast<int>(rng() % 700);
    std::vector<std::vector<T>> calls;
    std::vector<std::vector<int>> ids;
    const int ncalls = 1 + static_cast<int>(rng() % 3);
    for (int c = 0; c < ncalls; ++c) {
      const int len = static_cast<int>(rng() % 2500);
      calls.emplace_back(static_cast<std::size_t>(len));
      ids.emplace_back(static_cast<std::size_t>(len));
      const int mode = static_cast<int>(rng() % 4);
      for (int j = 0; j < len; ++j) {
        T v;
        switch (mode) {
          case 0:
            v = static_cast<T>(static_cast<double>(rng() % 1000) / 7.0);
            break;
          case 1:
            v = static_cast<T>(rng() % 5);
            break;
          case 2: {
            const double e = static_cast<double>(rng() % 600) - 300.0;
            v = static_cast<T>(std::ldexp(1.0 + (rng() % 100) / 100.0,
                                          static_cast<int>(e)));
            if (rng() % 3 == 0) v = -v;
            break;
          }
          default:
            v = std::numeric_limits<T>::denorm_min() *
                static_cast<T>(rng() % 50);
        }
        // −0.0 and +0.0 under one id are the same entry, and which bits the
        // row keeps is unspecified (docs/CONTRACT.md); the signed-zero test
        // above covers them under distinct ids.
        if (v == T(0)) v = T(0);
        calls.back()[static_cast<std::size_t>(j)] = v;
        ids.back()[static_cast<std::size_t>(j)] = static_cast<int>(rng() % 4000);
      }
    }
    expect_same_rows<T>(k, calls, ids);
  }
}

// ---- through the kernel ----------------------------------------------------

template <typename T>
std::vector<std::vector<std::pair<T, int>>> rows_of(
    const NeighborTableT<T>& t) {
  std::vector<std::vector<std::pair<T, int>>> out;
  for (int i = 0; i < t.rows(); ++i) out.push_back(t.sorted_row(i));
  return out;
}

template <typename T>
std::vector<std::vector<std::pair<T, int>>> run(
    const PointTableT<T>& X, const std::vector<int>& q,
    const std::vector<std::vector<int>>& calls, int k, Variant v, int threads,
    HeapArity arity, Norm norm) {
  NeighborTableT<T> t(static_cast<int>(q.size()), k, arity);
  KnnConfig cfg;
  cfg.variant = v;
  cfg.threads = threads;
  cfg.norm = norm;
  for (const auto& r : calls) knn_kernel(X, q, r, t, cfg);
  return rows_of(t);
}

/// Var#5 and Var#6 (batched above the crossover) against Var#1 (fused,
/// per-candidate) and Var#3 (row scan, per-candidate), every thread count
/// and arity, f64 and f32.
void expect_variants_agree(const PointTable& X, const std::vector<int>& q,
                           const std::vector<std::vector<int>>& calls, int k,
                           Norm norm) {
  const auto anchor =
      run(X, q, calls, k, Variant::kVar1, 1, HeapArity::kBinary, norm);
  const PointTableF Xf = to_float(X);
  const auto anchor_f =
      run(Xf, q, calls, k, Variant::kVar1, 1, HeapArity::kBinary, norm);
  for (const Variant v : {Variant::kVar3, Variant::kVar5, Variant::kVar6}) {
    for (const int threads : {1, 3}) {
      for (const HeapArity a : {HeapArity::kBinary, HeapArity::kQuad}) {
        EXPECT_EQ(run(X, q, calls, k, v, threads, a, norm), anchor)
            << "f64 variant " << static_cast<int>(v) << " threads "
            << threads << " arity " << static_cast<int>(a);
        EXPECT_EQ(run(Xf, q, calls, k, v, threads, a, norm), anchor_f)
            << "f32 variant " << static_cast<int>(v) << " threads "
            << threads << " arity " << static_cast<int>(a);
      }
    }
  }
}

// Duplicate points: every query sees runs of exactly equal distances.
TEST(BatchSelectKernel, DuplicatePointsTieOnIds) {
  const int d = 12, distinct = 20, copies = 24;
  const PointTable base = make_uniform(d, distinct, 0xB1);
  PointTable X(d, distinct * copies);
  for (int i = 0; i < X.size(); ++i) {
    for (int r = 0; r < d; ++r) X.col(i)[r] = base.col(i % distinct)[r];
  }
  X.compute_norms();
  std::vector<int> q = iota_ids(16);
  const std::vector<int> r = iota_ids(X.size());
  expect_variants_agree(X, q, {r}, 200, Norm::kL2Sq);
  expect_variants_agree(X, q, {r}, 200, Norm::kCosine);
}

// Cosine over near-parallel points: distances of ~0, some rounding below.
TEST(BatchSelectKernel, CosineNearZeroDistances) {
  const int d = 8, n = 500;
  PointTable X(d, n);
  std::mt19937 rng(21);
  std::uniform_real_distribution<double> jitter(-1e-9, 1e-9);
  std::uniform_real_distribution<double> scale(0.5, 3.0);
  for (int i = 0; i < n; ++i) {
    const double s = scale(rng);
    for (int r = 0; r < d; ++r) {
      X.col(i)[r] = s * (1.0 + r) * (1.0 + (i % 3 == 0 ? 0.0 : jitter(rng)));
    }
  }
  X.compute_norms();
  expect_variants_agree(X, iota_ids(10), {iota_ids(n - 10, 10)}, kMinK,
                        Norm::kCosine);
}

// NaN and ±Inf coordinates, k > n, and a table carried across two calls
// (the second meets rows filled by the first).
TEST(BatchSelectKernel, NonFiniteSentinelsAndCarriedTables) {
  const int d = 10;
  PointTable X = make_uniform(d, 700, 0xB3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 30; i < X.size(); i += 17) X.col(i)[i % d] = nan;
  for (int i = 35; i < X.size(); i += 23) X.col(i)[i % d] = (i % 2) ? inf : -inf;
  X.compute_norms();
  const std::vector<int> q = iota_ids(24);
  expect_variants_agree(X, q, {iota_ids(150, 24)}, 300, Norm::kL2Sq);
  expect_variants_agree(X, q, {iota_ids(300, 24), iota_ids(376, 324)}, 256,
                        Norm::kL2Sq);
  expect_variants_agree(X, q, {iota_ids(300, 24), iota_ids(376, 324)}, 256,
                        Norm::kL1);
}

// ---- planning --------------------------------------------------------------

TEST(BatchSelectPlan, ScratchOnlyWhereRowsBatch) {
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.variant = Variant::kVar6;
  EXPECT_TRUE(plan_knn_workspace<double>(64, 2000, 16, kMinK, cfg).batch_select);
  EXPECT_FALSE(
      plan_knn_workspace<double>(64, 2000, 16, kMinK - 1, cfg).batch_select);
  cfg.variant = Variant::kVar5;
  EXPECT_TRUE(plan_knn_workspace<float>(64, 2000, 16, 512, cfg).batch_select);
  cfg.dedup = true;  // first arrival wins: order matters, no batching
  EXPECT_FALSE(plan_knn_workspace<float>(64, 2000, 16, 512, cfg).batch_select);
  cfg.dedup = false;
  for (const Variant v : {Variant::kVar1, Variant::kVar2, Variant::kVar3}) {
    cfg.variant = v;
    EXPECT_FALSE(plan_knn_workspace<double>(64, 2000, 16, 512, cfg).batch_select);
  }
}

// Var#6 under a cap demotes to Var#5 and keeps batching; a cap below the
// scratch drops it last. Rows are bitwise the uncapped rows either way.
TEST(BatchSelectPlan, CapDemotesVar6AndThenDropsScratch) {
  const int m = 32, d = 16, k = 256;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.variant = Variant::kVar6;
  // Rows longer than one nc panel, so Var#5's distance panel and scratch
  // are smaller than Var#6's whole rows (nc does not depend on n).
  const int n =
      plan_knn_workspace<double>(m, 1 << 20, d, k, cfg).blocking.nc + 1000;
  const PointTable X = make_uniform(d, m + n, 0xB4);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  NeighborTable free_run(m, k);
  knn_kernel(X, q, r, free_run, cfg);
  const auto natural = plan_knn_workspace<double>(m, n, d, k, cfg);
  ASSERT_TRUE(natural.batch_select);
  ASSERT_EQ(natural.variant, Variant::kVar6);

  KnnConfig demoted = cfg;
  demoted.max_workspace_bytes = natural.total_bytes() - 1;
  const auto plan5 = plan_knn_workspace<double>(m, n, d, k, demoted);
  ASSERT_TRUE(plan5.fits);
  EXPECT_EQ(plan5.variant, Variant::kVar5);
  EXPECT_TRUE(plan5.batch_select);

  KnnConfig floor_cfg = cfg;
  floor_cfg.max_workspace_bytes = 1;
  const auto floor = plan_knn_workspace<double>(m, n, d, k, floor_cfg);
  ASSERT_FALSE(floor.fits);
  EXPECT_FALSE(floor.batch_select);
  KnnConfig unbatched = cfg;
  unbatched.max_workspace_bytes = floor.total_bytes();
  const auto plan_seq = plan_knn_workspace<double>(m, n, d, k, unbatched);
  ASSERT_TRUE(plan_seq.fits);
  EXPECT_FALSE(plan_seq.batch_select);

  for (const KnnConfig& c : {demoted, unbatched}) {
    telemetry::KernelProfile P;
    KnnConfig pc = c;
    pc.profile = &P;
    NeighborTable t(m, k);
    knn_kernel(X, q, r, t, pc);
    EXPECT_EQ(P.variant, 5);
    EXPECT_EQ(P.workspace_bytes,
              plan_knn_workspace<double>(m, n, d, k, c).total_bytes());
    EXPECT_EQ(rows_of(t), rows_of(free_run));
  }
}

// A Var#5 cap that the scratch-free footprint meets drops the scratch and
// keeps the natural blocking: no nc, mc or dc halving for it.
TEST(BatchSelectPlan, CapJustAboveScratchFreeFootprintKeepsBlocking) {
  const int m = 32, n = 2000, d = 16, k = 256;
  const PointTable X = make_uniform(d, m + n, 0xB6);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.variant = Variant::kVar5;
  NeighborTable free_run(m, k);
  knn_kernel(X, q, r, free_run, cfg);
  const auto natural = plan_knn_workspace<double>(m, n, d, k, cfg);
  ASSERT_TRUE(natural.batch_select);
  KnnConfig dedup = cfg;  // the same plan without scratch
  dedup.dedup = true;
  const auto scratch_free = plan_knn_workspace<double>(m, n, d, k, dedup);
  ASSERT_FALSE(scratch_free.batch_select);
  ASSERT_LT(scratch_free.total_bytes(), natural.total_bytes());

  for (const std::size_t slack : {std::size_t{0}, std::size_t{1}}) {
    KnnConfig capped = cfg;
    capped.max_workspace_bytes = scratch_free.total_bytes() + slack;
    const auto plan = plan_knn_workspace<double>(m, n, d, k, capped);
    ASSERT_TRUE(plan.fits);
    EXPECT_FALSE(plan.batch_select);
    EXPECT_EQ(plan.retile_steps, 1);
    EXPECT_EQ(plan.blocking.nc, natural.blocking.nc);
    EXPECT_EQ(plan.blocking.mc, natural.blocking.mc);
    EXPECT_EQ(plan.blocking.dc, natural.blocking.dc);
    EXPECT_EQ(plan.total_bytes(), scratch_free.total_bytes());

    telemetry::KernelProfile P;
    capped.profile = &P;
    NeighborTable t(m, k);
    knn_kernel(X, q, r, t, capped);
    EXPECT_EQ(P.workspace_bytes, plan.total_bytes());
    EXPECT_EQ(rows_of(t), rows_of(free_run));
  }
}

// The warm-call planner is the plan a warm call reports.
TEST(BatchSelectPlan, PackedPlanMatchesWarmFootprint) {
  const int m = 40, n = 900, d = 16;
  const PointTable X = make_uniform(d, m + n, 0xB5);
  PackedRefs refs;
  ASSERT_EQ(refs.build(X, iota_ids(n, m)), Status::kOk);
  const auto q = iota_ids(m);
  for (const int k : {16, 256}) {
    for (const Variant v : {Variant::kVar1, Variant::kVar5, Variant::kVar6}) {
      KnnConfig cfg;
      cfg.threads = 1;
      cfg.variant = v;
      const WorkspacePlan plan = plan_knn_workspace(refs, m, k, cfg);
      EXPECT_EQ(plan.batch_select, k >= kMinK && v != Variant::kVar1);
      telemetry::KernelProfile P;
      cfg.profile = &P;
      NeighborTable t(m, k);
      knn_kernel(refs, q, t, cfg);
      EXPECT_EQ(P.workspace_bytes, plan.total_bytes())
          << "k " << k << " variant " << static_cast<int>(v);
    }
  }
  EXPECT_EQ(plan_knn_workspace(refs, 0, 16).total_bytes(), 0u);
}

}  // namespace
}  // namespace gsknn
