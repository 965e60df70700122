// Telemetry subsystem: exact work-counter invariants across every selection
// variant, profile aggregation semantics, JSON/table rendering, and the
// unified baseline breakdown.
//
// This test links against gsknn_core_prof — the core compiled with
// GSKNN_PROFILE=1 — so the hot-loop counters are live here even though the
// default library build leaves them compiled out. The counting scheme is
// designed to be *exact*, not sampled: every (query, reference) candidate a
// kernel invocation examines is classified as either a heap push or a
// root-reject, so for an m×n problem
//
//     candidates_evaluated == m * n
//     heap_pushes + root_rejects == candidates_evaluated
//
// must hold to the last unit, for every variant, precision and thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/trace.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/data/generators.hpp"
#include "test_util.hpp"

namespace gsknn {
namespace {

using telemetry::Counter;
using telemetry::KernelProfile;
using telemetry::Phase;

std::vector<int> iota_ids(int n, int offset = 0) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), offset);
  return v;
}

/// Check the exact counter invariants on a profile of one m×n invocation.
void expect_exact_counters(const KernelProfile& prof, int m, int n) {
  if (!prof.counters_enabled) {
    GTEST_SKIP() << "kernel build has no work counters (GSKNN_PROFILE off)";
  }
  const auto mn = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n);
  EXPECT_EQ(prof.counter(Counter::kCandidates), mn);
  EXPECT_EQ(prof.counter(Counter::kHeapPushes) +
                prof.counter(Counter::kRootRejects),
            prof.counter(Counter::kCandidates));
  // Every query must have accepted at least one candidate (the table starts
  // at +inf), and rejects cannot exceed the total.
  EXPECT_GE(prof.counter(Counter::kHeapPushes),
            static_cast<std::uint64_t>(m));
  EXPECT_GT(prof.counter(Counter::kTiles), 0u);
}

struct VariantCase {
  Variant variant;
  int threads;
};

class TelemetryInvariants : public ::testing::TestWithParam<VariantCase> {};

TEST_P(TelemetryInvariants, CountersExactDouble) {
  const auto [variant, threads] = GetParam();
  const int m = 96, n = 160, d = 24, k = 8;
  const PointTable X = make_uniform(d, m + n, 0x7E1E);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.variant = variant;
  cfg.threads = threads;
  cfg.dedup = true;  // the tree-solver configuration — counts must still add up
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);

  EXPECT_EQ(prof.invocations, 1u);
  EXPECT_GT(prof.wall_seconds, 0.0);
  expect_exact_counters(prof, m, n);

  // The result must be untouched by the instrumentation: compare against an
  // unprofiled run.
  KnnConfig plain = cfg;
  plain.profile = nullptr;
  NeighborTable t2(m, k);
  knn_kernel(X, q, r, t2, plain);
  for (int i = 0; i < m; ++i) {
    const auto a = t.sorted_row(i);
    const auto b = t2.sorted_row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].second, b[j].second);
      EXPECT_DOUBLE_EQ(a[j].first, b[j].first);
    }
  }
}

TEST_P(TelemetryInvariants, CountersExactFloat) {
  const auto [variant, threads] = GetParam();
  const int m = 80, n = 144, d = 20, k = 6;
  const PointTableF X = to_float(make_uniform(d, m + n, 0x7E1F));
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.variant = variant;
  cfg.threads = threads;
  cfg.dedup = true;
  cfg.profile = &prof;
  NeighborTableF t(m, k);
  knn_kernel(X, q, r, t, cfg);

  EXPECT_EQ(prof.invocations, 1u);
  EXPECT_STREQ(prof.precision, "f32");
  expect_exact_counters(prof, m, n);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TelemetryInvariants,
    ::testing::Values(VariantCase{Variant::kVar1, 1},
                      VariantCase{Variant::kVar1, 4},
                      VariantCase{Variant::kVar2, 1},
                      VariantCase{Variant::kVar2, 4},
                      VariantCase{Variant::kVar3, 1},
                      VariantCase{Variant::kVar3, 4},
                      VariantCase{Variant::kVar5, 1},
                      VariantCase{Variant::kVar5, 4},
                      VariantCase{Variant::kVar6, 1},
                      VariantCase{Variant::kVar6, 4}),
    [](const ::testing::TestParamInfo<VariantCase>& tpi) {
      const int v = static_cast<int>(tpi.param.variant);
      return "Var" + std::to_string(v < 4 ? v : v + 1) + "Threads" +
             std::to_string(tpi.param.threads);
    });

// Phase attribution, pinned per variant and thread count with a profile and
// a trace sink attached: selection time and `select` spans appear iff the
// variant materializes distances (not Var#1), the attributed phases fit in
// the wall, the reference side is packed once per (jc, pc) slab, and Var#2's
// per-sliver selections sit inside the micro span they are carved out of.
struct TracedSpan {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  int tid = -1;
};

std::vector<TracedSpan> parse_spans(const std::string& json) {
  std::vector<TracedSpan> out;
  for (std::size_t at = json.find("{\"name\":\""); at != std::string::npos;
       at = json.find("{\"name\":\"", at + 1)) {
    char name[32] = {};
    TracedSpan s;
    if (std::sscanf(json.c_str() + at,
                    "{\"name\":\"%31[^\"]\",\"cat\":\"gsknn\",\"ph\":\"X\","
                    "\"ts\":%lf,\"dur\":%lf,\"pid\":1,\"tid\":%d",
                    name, &s.ts, &s.dur, &s.tid) == 4) {
      s.name = name;
      out.push_back(s);
    }
  }
  return out;
}

class TelemetryAttribution : public ::testing::TestWithParam<VariantCase> {};

TEST_P(TelemetryAttribution, PhasesAndSpansMatchTheVariant) {
  const auto [variant, threads] = GetParam();
  const int m = 96, n = 300, d = 40, k = 8;
  const PointTable X = make_uniform(d, m + n, 0xA771);
  // Small nc/dc so the call walks several reference panels and depth blocks.
  BlockingParams bp = default_blocking(cpu_features().best_level());
  bp.nc = 16 * bp.nr;
  bp.dc = 16;

  KernelProfile prof;
  telemetry::TraceSink trace(256);
  KnnConfig cfg;
  cfg.variant = variant;
  cfg.threads = threads;
  cfg.blocking = bp;
  cfg.profile = &prof;
  cfg.trace = &trace;
  NeighborTable t(m, k);
  knn_kernel(X, iota_ids(m), iota_ids(n, m), t, cfg);

  const bool selects = variant != Variant::kVar1;
  EXPECT_EQ(prof.phase(Phase::kSelect) > 0.0, selects);
  EXPECT_LE(prof.phase_total(), prof.wall_seconds * 1.0001 + 1e-6);

  const std::vector<TracedSpan> spans = parse_spans(trace.to_json());
  ASSERT_EQ(spans.size(), trace.span_count());
  int pack_r = 0, select = 0;
  for (const TracedSpan& s : spans) {
    pack_r += s.name == "pack_r";
    select += s.name == "select";
  }
  EXPECT_EQ(select > 0, selects);
  if (threads == 1) {
    const int panels = (n + prof.blocking.nc - 1) / prof.blocking.nc;
    const int depths = (d + prof.blocking.dc - 1) / prof.blocking.dc;
    EXPECT_EQ(pack_r, panels * depths);
  }
  if (variant == Variant::kVar2) {
    // Timestamps print at 1 ns resolution: allow two rounding steps.
    const double eps = 2e-3;
    for (const TracedSpan& s : spans) {
      if (s.name != "select") continue;
      bool nested = false;
      for (const TracedSpan& mu : spans) {
        if (mu.name == "micro" && mu.tid == s.tid && s.ts >= mu.ts - eps &&
            s.ts + s.dur <= mu.ts + mu.dur + eps) {
          nested = true;
          break;
        }
      }
      EXPECT_TRUE(nested) << "select span at ts=" << s.ts << " on track "
                          << s.tid << " is outside every micro span";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TelemetryAttribution,
    ::testing::Values(VariantCase{Variant::kVar1, 1},
                      VariantCase{Variant::kVar1, 3},
                      VariantCase{Variant::kVar2, 1},
                      VariantCase{Variant::kVar2, 3},
                      VariantCase{Variant::kVar3, 1},
                      VariantCase{Variant::kVar3, 3},
                      VariantCase{Variant::kVar5, 1},
                      VariantCase{Variant::kVar5, 3},
                      VariantCase{Variant::kVar6, 1},
                      VariantCase{Variant::kVar6, 3}),
    [](const ::testing::TestParamInfo<VariantCase>& tpi) {
      const int v = static_cast<int>(tpi.param.variant);
      return "Var" + std::to_string(v < 4 ? v : v + 1) + "Threads" +
             std::to_string(tpi.param.threads);
    });

TEST(Telemetry, MetadataAndPhases) {
  const int m = 64, n = 128, d = 16, k = 4;
  const PointTable X = make_uniform(d, m + n, 0xE7A);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.variant = Variant::kVar6;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);

  EXPECT_STREQ(prof.algorithm, "gsknn");
  EXPECT_STREQ(prof.precision, "f64");
  EXPECT_EQ(prof.m, m);
  EXPECT_EQ(prof.n, n);
  EXPECT_EQ(prof.d, d);
  EXPECT_EQ(prof.k, k);
  EXPECT_EQ(prof.variant, 6);
  EXPECT_GT(prof.model_gflops, 0.0);
  // Attributed phases cannot exceed the wall (other_seconds clamps at 0, so
  // verify against the raw sum), and Var#6 must attribute selection time.
  EXPECT_LE(prof.phase_total(), prof.wall_seconds * 1.0001 + 1e-6);
  EXPECT_GT(prof.phase(Phase::kMicro), 0.0);
  EXPECT_GT(prof.phase(Phase::kSelect), 0.0);
  EXPECT_GE(prof.other_seconds(), 0.0);
  EXPECT_GT(prof.gflops(), 0.0);
  EXPECT_GT(prof.selection_fraction(), 0.0);

  // Var#1 fuses selection into the micro-kernel: its select phase is zero.
  KernelProfile prof1;
  cfg.variant = Variant::kVar1;
  cfg.profile = &prof1;
  NeighborTable t1(m, k);
  knn_kernel(X, q, r, t1, cfg);
  EXPECT_EQ(prof1.variant, 1);
  EXPECT_EQ(prof1.phase(Phase::kSelect), 0.0);
  EXPECT_EQ(prof1.selection_fraction(), 0.0);
}

TEST(Telemetry, AccumulatesAcrossInvocations) {
  const int m = 48, n = 64, d = 8, k = 4;
  const PointTable X = make_uniform(d, m + n, 0xACC);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.profile = &prof;
  for (int rep = 0; rep < 3; ++rep) {
    NeighborTable t(m, k);
    knn_kernel(X, q, r, t, cfg);
  }
  EXPECT_EQ(prof.invocations, 3u);
  if (prof.counters_enabled) {
    EXPECT_EQ(prof.counter(Counter::kCandidates),
              3ull * static_cast<std::uint64_t>(m) * n);
  }

  const double wall = prof.wall_seconds;
  prof.reset();
  EXPECT_EQ(prof.invocations, 0u);
  EXPECT_EQ(prof.wall_seconds, 0.0);
  EXPECT_NE(wall, 0.0);
}

TEST(Telemetry, MergeAdoptsMetadataOnce) {
  KernelProfile a;  // empty sink, never recorded into
  KernelProfile b;
  b.algorithm = "gsknn";
  b.precision = "f64";
  b.m = 7;
  b.wall_seconds = 1.5;
  b.phase_seconds[static_cast<int>(Phase::kMicro)] = 1.0;
  b.counters[static_cast<int>(Counter::kCandidates)] = 42;
  b.counters_enabled = true;
  b.invocations = 2;

  a.merge(b);
  EXPECT_STREQ(a.algorithm, "gsknn");
  EXPECT_EQ(a.m, 7);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 1.5);
  EXPECT_EQ(a.counter(Counter::kCandidates), 42u);
  EXPECT_TRUE(a.counters_enabled);
  EXPECT_EQ(a.invocations, 2u);

  a.merge(b);  // second merge keeps metadata, sums measurements
  EXPECT_DOUBLE_EQ(a.wall_seconds, 3.0);
  EXPECT_EQ(a.counter(Counter::kCandidates), 84u);
  EXPECT_EQ(a.invocations, 4u);
}

TEST(Telemetry, JsonAndTableRendering) {
  const int m = 32, n = 48, d = 8, k = 4;
  const PointTable X = make_uniform(d, m + n, 0x15);
  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel(X, iota_ids(m), iota_ids(n, m), t, cfg);

  const std::string j = prof.to_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  for (const char* key :
       {"\"algorithm\":\"gsknn\"", "\"wall_seconds\":", "\"phases\":",
        "\"pack_q\":", "\"micro\":", "\"counters\":", "\"counters_enabled\":",
        "\"blocking\":", "\"derived\":", "\"gflops\":", "\"invocations\":1"}) {
    EXPECT_NE(j.find(key), std::string::npos) << "missing " << key << " in " << j;
  }
  // JSON must stay one line (the JSON-lines bench contract).
  EXPECT_EQ(j.find('\n'), std::string::npos);

  const std::string table = prof.format_table();
  EXPECT_NE(table.find("micro-kernel"), std::string::npos);
  EXPECT_NE(table.find("total (wall)"), std::string::npos);
}

TEST(Telemetry, BaselineUnifiedBreakdown) {
  const int m = 64, n = 96, d = 12, k = 4;
  const PointTable X = make_uniform(d, m + n, 0xB5);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 1;
  cfg.profile = &prof;
  BaselineBreakdown bd;
  NeighborTable t(m, k);
  knn_gemm_baseline(X, q, r, t, cfg, {}, &bd);

  EXPECT_STREQ(prof.algorithm, "gemm_baseline");
  EXPECT_EQ(prof.invocations, 1u);
  // The legacy view and the profile are the same measurement.
  EXPECT_DOUBLE_EQ(bd.t_collect, prof.phase(Phase::kCollect));
  EXPECT_DOUBLE_EQ(bd.t_gemm, prof.phase(Phase::kMicro));
  EXPECT_DOUBLE_EQ(bd.t_sq2d, prof.phase(Phase::kSq2d));
  EXPECT_DOUBLE_EQ(bd.t_heap, prof.phase(Phase::kSelect));
  EXPECT_GT(bd.total(), 0.0);
  EXPECT_LE(prof.phase_total(), prof.wall_seconds * 1.0001 + 1e-6);
}

TEST(Telemetry, ParallelRefsMergesWorkerProfiles) {
  const int m = 32, n = 512, d = 16, k = 4;
  const PointTable X = make_uniform(d, m + n, 0xFA7);
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.threads = 4;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel_parallel_refs(X, q, r, t, cfg);

  EXPECT_STREQ(prof.algorithm, "gsknn_parallel_refs");
  EXPECT_EQ(prof.invocations, 1u);
  EXPECT_GT(prof.wall_seconds, 0.0);
  if (prof.counters_enabled) {
    // Workers partition the references, so the candidate total is exact.
    EXPECT_EQ(prof.counter(Counter::kCandidates),
              static_cast<std::uint64_t>(m) * n);
    EXPECT_EQ(prof.counter(Counter::kHeapPushes) +
                  prof.counter(Counter::kRootRejects),
              prof.counter(Counter::kCandidates));
  }
}

// The hot-path specializations must keep the counting scheme exact: the
// k == 1 accept shortcut, the sorted small-k row path (k <= kSmallSortedK)
// and the deferred candidate buffers (Var#1, k >= kDeferMinK) all
// reclassify accepted candidates out of the driver's pre-counted
// root-rejects — including candidates that were buffered first and only
// rejected (or accepted) at flush time.
void run_and_audit(int m, int n, int d, int k, Variant variant) {
  const PointTable X = make_uniform(d, m + n, 0xA0D17 + static_cast<unsigned>(k));
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.variant = variant;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTable t(m, k);
  knn_kernel(X, q, r, t, cfg);
  expect_exact_counters(prof, m, n);

  // The packed-byte tallies must cover at least the logical panels (they
  // count padded slivers, so >= is the exact lower bound).
  EXPECT_GE(prof.counter(Counter::kBytesPackedQ),
            static_cast<std::uint64_t>(m) * d * sizeof(double));
  EXPECT_GE(prof.counter(Counter::kBytesPackedR),
            static_cast<std::uint64_t>(n) * d * sizeof(double));

  // Fast paths must not change the answer: compare with an unprofiled run.
  KnnConfig plain = cfg;
  plain.profile = nullptr;
  NeighborTable t2(m, k);
  knn_kernel(X, q, r, t2, plain);
  for (int i = 0; i < m; ++i) {
    const auto a = t.sorted_row(i);
    const auto b = t2.sorted_row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(TelemetryHotPaths, KOneCountersExact) {
  run_and_audit(96, 160, 24, 1, Variant::kVar1);
}

TEST(TelemetryHotPaths, SmallSortedKCountersExact) {
  run_and_audit(96, 160, 24, 4, Variant::kVar1);  // k <= kSmallSortedK
}

TEST(TelemetryHotPaths, DeferredSelectionCountersExact) {
  // k >= kDeferMinK with Var#1 and a binary heap routes every accepted
  // candidate through the compress-store buffers and the block-end flush.
  run_and_audit(48, 512, 16, 256, Variant::kVar1);
}

TEST(TelemetryHotPaths, DeferredSelectionCountersExactFloat) {
  const int m = 48, n = 512, d = 16, k = 256;
  const PointTableF X = to_float(make_uniform(d, m + n, 0xA0D20));
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);

  KernelProfile prof;
  KnnConfig cfg;
  cfg.variant = Variant::kVar1;
  cfg.threads = 1;
  cfg.profile = &prof;
  NeighborTableF t(m, k);
  knn_kernel(X, q, r, t, cfg);
  expect_exact_counters(prof, m, n);
}

// Var#5/6 rows above the batched-selection crossover (k >= 128) pick their
// winners with heap::batch_select: the survivors of the root test count as
// pushes, the rest as rejects, so the invariant stays exact. The float case
// pins nc = 256, so Var#5's later panels meet a filled heap.
TEST(TelemetryHotPaths, BatchedSelectionCountersExact) {
  run_and_audit(40, 700, 16, 256, Variant::kVar5);
  run_and_audit(40, 700, 16, 256, Variant::kVar6);
}

TEST(TelemetryHotPaths, BatchedSelectionCountersExactFloat) {
  const int m = 40, n = 700, d = 16, k = 256;
  const PointTableF X = to_float(make_uniform(d, m + n, 0xA0D21));
  const auto q = iota_ids(m);
  const auto r = iota_ids(n, m);
  for (const Variant v : {Variant::kVar5, Variant::kVar6}) {
    KernelProfile prof;
    KnnConfig cfg;
    cfg.variant = v;
    cfg.threads = 1;
    cfg.profile = &prof;
    if (v == Variant::kVar5) {
      cfg.blocking = BlockingParams{};  // the 8x4 tile resolves at every level
      cfg.blocking->nc = 256;           // three reference panels
    }
    NeighborTableF t(m, k);
    knn_kernel(X, q, r, t, cfg);
    expect_exact_counters(prof, m, n);
  }
}

TEST(Telemetry, InactiveRecorderIsNoop) {
  telemetry::Recorder rec(nullptr, 8);
  EXPECT_FALSE(rec.active());
  rec.aggregate();  // must not crash or write anywhere
}

}  // namespace
}  // namespace gsknn
