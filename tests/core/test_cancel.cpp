// Deadlines and cooperative cancellation (docs/ROBUSTNESS.md): every driver
// polls KnnConfig::cancel / ::deadline at block boundaries and unwinds to a
// clean Status with finished rows intact and unfinished rows flagged.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "gsknn/common/cancel.hpp"
#include "gsknn/common/fault.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/tree/lsh.hpp"
#include "gsknn/tree/rkd_forest.hpp"

namespace gsknn {
namespace {

class CancelTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
};

std::vector<int> iota_ids(int count, int from = 0) {
  std::vector<int> v(static_cast<std::size_t>(count));
  std::iota(v.begin(), v.end(), from);
  return v;
}

TEST_F(CancelTest, PreCancelledTokenStopsBeforeAnyWork) {
  const PointTable X = make_uniform(8, 120, 0xC0);
  const auto q = iota_ids(20);
  const auto r = iota_ids(100, 20);
  NeighborTable res(20, 4);
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
    EXPECT_TRUE(res.sorted_row(i).empty()) << "row " << i;
  }
}

TEST_F(CancelTest, ThrowingOverloadRaisesStatusError) {
  const PointTable X = make_uniform(6, 60, 0xC1);
  const auto q = iota_ids(10);
  const auto r = iota_ids(50, 10);
  NeighborTable res(10, 3);
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  try {
    knn_kernel(X, q, r, res, cfg);
    FAIL() << "cancelled call returned";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kCancelled);
  }
}

TEST_F(CancelTest, TokenResetReArmsForReuse) {
  const PointTable X = make_uniform(6, 60, 0xC2);
  const auto q = iota_ids(10);
  const auto r = iota_ids(50, 10);
  NeighborTable res(10, 3);
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  token.reset();
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kOk);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_TRUE(res.row_complete(i)) << "row " << i;
    EXPECT_EQ(res.sorted_row(i).size(), 3u) << "row " << i;
  }
}

// Cancellation granularity is the mc-block, not the whole call: with small
// explicit blocking a mid-kernel cancellation (forced at an exact poll via
// the fault hook) leaves the finished blocks' rows complete and bitwise
// equal to an uncancelled run, and only the unfinished rows flagged.
TEST_F(CancelTest, MidKernelCancellationKeepsFinishedBlocks) {
  const PointTable X = make_uniform(10, 160, 0xC3);
  const auto q = iota_ids(64);
  const auto r = iota_ids(96, 64);
  KnnConfig cfg;
  cfg.blocking = BlockingParams{};
  cfg.blocking->mc = 16;
  cfg.blocking->nc = 16;
  cfg.blocking->dc = 32;
  cfg.variant = Variant::kVar1;

  NeighborTable clean(64, 5);
  knn_kernel(X, q, r, clean, cfg);

  // Count the polls this exact call makes, then cancel in the middle.
  fault::configure({.cancel_at = (1ll << 40)});
  {
    NeighborTable scratch(64, 5);
    ASSERT_EQ(knn_kernel_status(X, q, r, scratch, cfg), Status::kOk);
  }
  const auto polls = fault::poll_count();
  ASSERT_GT(polls, 2u) << "blocking too coarse to land a mid-kernel cancel";

  fault::configure({.cancel_at = static_cast<std::int64_t>(polls / 2)});
  NeighborTable res(64, 5);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  fault::reset();

  int complete = 0, incomplete = 0;
  for (int i = 0; i < res.rows(); ++i) {
    if (res.row_complete(i)) {
      ++complete;
      EXPECT_EQ(res.sorted_row(i), clean.sorted_row(i)) << "row " << i;
    } else {
      ++incomplete;
    }
  }
  EXPECT_GT(incomplete, 0);  // the cancel landed mid-kernel
  EXPECT_EQ(complete + incomplete, 64);
}

TEST_F(CancelTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  const PointTable X = make_uniform(8, 100, 0xC4);
  const auto q = iota_ids(16);
  const auto r = iota_ids(84, 16);
  NeighborTable res(16, 4);
  KnnConfig cfg;
  cfg.deadline = deadline_after_ms(0);  // already expired
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kDeadlineExceeded);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
  }
}

TEST_F(CancelTest, GenerousDeadlineDoesNotTrip) {
  const PointTable X = make_uniform(8, 100, 0xC5);
  const auto q = iota_ids(16);
  const auto r = iota_ids(84, 16);
  NeighborTable res(16, 4);
  KnnConfig cfg;
  cfg.deadline = deadline_after_ms(60'000);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kOk);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_TRUE(res.row_complete(i)) << "row " << i;
  }
}

// A real (not pre-expired) deadline over a kernel slowed at every poll must
// land mid-run and stop it.
TEST_F(CancelTest, DeadlineLandsMidKernelOnSlowedRun) {
  const PointTable X = make_uniform(10, 200, 0xC6);
  const auto q = iota_ids(64);
  const auto r = iota_ids(128, 64);
  KnnConfig cfg;
  cfg.blocking = BlockingParams{};
  cfg.blocking->mc = 16;
  cfg.blocking->nc = 16;
  cfg.blocking->dc = 32;
  cfg.variant = Variant::kVar1;
  cfg.deadline = deadline_after_ms(5);
  fault::configure({.slow_us = 2000});  // each poll costs 2 ms
  NeighborTable res(64, 4);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kDeadlineExceeded);
}

TEST_F(CancelTest, MultiThreadedKernelCancelsCleanly) {
  const PointTable X = make_uniform(8, 240, 0xC7);
  const auto q = iota_ids(96);
  const auto r = iota_ids(144, 96);
  KnnConfig cfg;
  cfg.threads = 3;
  CancelToken token;
  token.cancel();
  cfg.cancel = &token;
  NeighborTable res(96, 4);
  EXPECT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
  }
}

// Variants 5/6 select in all-or-nothing regions: a stop before selection
// flags every row, and no row is ever half-selected.
TEST_F(CancelTest, StreamingVariantsCancelAllOrNothing) {
  const PointTable X = make_uniform(8, 120, 0xC8);
  const auto q = iota_ids(24);
  const auto r = iota_ids(96, 24);
  for (const Variant v : {Variant::kVar5, Variant::kVar6}) {
    NeighborTable res(24, 4);
    KnnConfig cfg;
    cfg.variant = v;
    CancelToken token;
    token.cancel();
    cfg.cancel = &token;
    ASSERT_EQ(knn_kernel_status(X, q, r, res, cfg), Status::kCancelled);
    for (int i = 0; i < res.rows(); ++i) {
      EXPECT_FALSE(res.row_complete(i)) << "row " << i;
      EXPECT_TRUE(res.sorted_row(i).empty()) << "row " << i;
    }
  }
}

TEST_F(CancelTest, Float32KernelHonorsToken) {
  const PointTable X = make_uniform(8, 120, 0xC9);
  const PointTableF Xf = to_float(X);
  const auto q = iota_ids(20);
  const auto r = iota_ids(100, 20);
  NeighborTableF res(20, 4);
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  EXPECT_EQ(knn_kernel_status(Xf, q, r, res, cfg), Status::kCancelled);
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_FALSE(res.row_complete(i)) << "row " << i;
  }
  token.reset();
  EXPECT_EQ(knn_kernel_status(Xf, q, r, res, cfg), Status::kOk);
}

TEST_F(CancelTest, ParallelRefsSkipsMergeOnCancel) {
  const PointTable X = make_uniform(8, 200, 0xCA);
  const auto q = iota_ids(24);
  const auto r = iota_ids(176, 24);
  NeighborTable res(24, 4);
  KnnConfig cfg;
  cfg.threads = 3;
  CancelToken token;
  token.cancel();
  cfg.cancel = &token;
  EXPECT_EQ(knn_kernel_parallel_refs_status(X, q, r, res, cfg),
            Status::kCancelled);
  // Merge skipped entirely: the caller's table is untouched.
  for (int i = 0; i < res.rows(); ++i) {
    EXPECT_TRUE(res.sorted_row(i).empty()) << "row " << i;
  }
}

// A cancelled batch finishes nothing new: started tasks stop at block
// granularity, pending tasks are skipped with their rows flagged. Both task
// forms: cold tasks, and packed tasks on one cache of the same references.
TEST_F(CancelTest, BatchSkipsPendingTasksOnCancel) {
  const PointTable X = make_uniform(6, 90, 0xCB);
  const auto r = iota_ids(60, 30);
  PackedRefs refs;
  ASSERT_EQ(refs.build(X, r), Status::kOk);
  std::vector<std::vector<int>> qs;
  for (int g = 0; g < 3; ++g) qs.push_back(iota_ids(10, g * 10));
  CancelToken token;
  token.cancel();
  KnnConfig cfg;
  cfg.cancel = &token;
  for (const bool packed : {false, true}) {
    SCOPED_TRACE(packed ? "packed" : "cold");
    NeighborTable t(30, 3);
    std::vector<KnnTask> cold;
    std::vector<PackedKnnTask> warm;
    for (const auto& q : qs) {
      cold.push_back(KnnTask{q, r, &t, q});
      warm.push_back(PackedKnnTask{q, &t, q});
    }
    EXPECT_EQ(packed ? knn_batch_status(refs, warm, 3, cfg)
                     : knn_batch_status(X, cold, 3, cfg),
              Status::kCancelled);
    for (int i = 0; i < 30; ++i) {
      EXPECT_FALSE(t.row_complete(i)) << "row " << i;
      EXPECT_TRUE(t.sorted_row(i).empty()) << "row " << i;
    }
  }
}

TEST_F(CancelTest, TreeSolverUnwindsOnCancel) {
  const PointTable X = make_uniform(6, 300, 0xCC);
  for (const tree::KernelBackend backend :
       {tree::KernelBackend::kGsknn, tree::KernelBackend::kGemmBaseline}) {
    tree::RkdConfig cfg;
    cfg.leaf_size = 32;
    cfg.num_trees = 2;
    cfg.backend = backend;
    CancelToken token;
    token.cancel();
    cfg.kernel.cancel = &token;
    const auto out = tree::all_nearest_neighbors(X, 4, cfg);
    EXPECT_EQ(out.status, Status::kCancelled);
    EXPECT_EQ(out.leaves_processed, 0);
  }
}

TEST_F(CancelTest, TreeSolverCompletesWithoutPressure) {
  const PointTable X = make_uniform(6, 200, 0xCD);
  tree::RkdConfig cfg;
  cfg.leaf_size = 32;
  cfg.num_trees = 2;
  CancelToken token;  // live but never cancelled
  cfg.kernel.cancel = &token;
  const auto out = tree::all_nearest_neighbors(X, 4, cfg);
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_GT(out.leaves_processed, 0);
}

TEST_F(CancelTest, LshSolverUnwindsOnDeadline) {
  const PointTable X = make_uniform(6, 300, 0xCE);
  tree::LshConfig cfg;
  cfg.tables = 4;
  cfg.bucket_width = 8.0;  // wide buckets: collisions (and thus groups) certain
  cfg.kernel.deadline = deadline_after_ms(0);
  const auto out = tree::lsh_all_nearest_neighbors(X, 4, cfg);
  EXPECT_EQ(out.status, Status::kDeadlineExceeded);
}

// One token may govern concurrent calls: cancel from another thread while a
// slowed kernel runs, and the kernel must come back kCancelled.
TEST_F(CancelTest, CancelFromAnotherThreadStopsARunningKernel) {
  const PointTable X = make_uniform(10, 200, 0xCF);
  const auto q = iota_ids(64);
  const auto r = iota_ids(128, 64);
  KnnConfig cfg;
  cfg.blocking = BlockingParams{};
  cfg.blocking->mc = 16;
  cfg.blocking->nc = 16;
  cfg.blocking->dc = 32;
  cfg.variant = Variant::kVar1;
  CancelToken token;
  cfg.cancel = &token;
  fault::configure({.slow_us = 1000});  // stretch the kernel past the signal
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    token.cancel();
  });
  NeighborTable res(64, 4);
  const Status s = knn_kernel_status(X, q, r, res, cfg);
  canceller.join();
  EXPECT_EQ(s, Status::kCancelled);
}

}  // namespace
}  // namespace gsknn
