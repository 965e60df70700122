// Task-parallel batch driver (§2.5): batching must be an execution-order
// detail, invisible in the results. The scheduler cases (overlap rejection,
// team folding, deadline skips) run over both task forms: cold KnnTasks and
// PackedKnnTasks on one PackedRefs cache (test_cancel covers cancel skips).
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/generators.hpp"
#include "test_util.hpp"

namespace gsknn {
namespace {

enum class Form { kCold, kPacked };
constexpr Form kForms[] = {Form::kCold, Form::kPacked};

const char* form_name(Form f) { return f == Form::kCold ? "cold" : "packed"; }

/// One batch whose tasks all search the same references `r`: as cold
/// KnnTasks over `r`, or as PackedKnnTasks over a PackedRefs cache of `r`.
class SharedRefBatch {
 public:
  SharedRefBatch(const PointTable& X, std::vector<int> r)
      : X_(X), r_(std::move(r)) {
    EXPECT_EQ(refs_.build(X_, r_), Status::kOk);
  }

  /// A task querying `q` into rows `rows` (empty: rows [0, m)) of `table`.
  void add(std::vector<int> q, NeighborTable* table,
           std::vector<int> rows = {}) {
    qs_.push_back(std::move(q));
    rows_.push_back(std::move(rows));
    tables_.push_back(table);
  }

  Status run(Form form, int k, const KnnConfig& cfg) {
    if (form == Form::kCold) {
      std::vector<KnnTask> tasks;
      for (std::size_t g = 0; g < qs_.size(); ++g) {
        tasks.push_back(KnnTask{qs_[g], r_, tables_[g], rows_[g]});
      }
      return knn_batch_status(X_, tasks, k, cfg);
    }
    std::vector<PackedKnnTask> tasks;
    for (std::size_t g = 0; g < qs_.size(); ++g) {
      tasks.push_back(PackedKnnTask{qs_[g], tables_[g], rows_[g]});
    }
    return knn_batch_status(refs_, tasks, k, cfg);
  }

 private:
  const PointTable& X_;
  std::vector<int> r_;
  PackedRefs refs_;
  std::vector<std::vector<int>> qs_, rows_;
  std::vector<NeighborTable*> tables_;
};

TEST(KnnBatch, MatchesIndividualKernels) {
  const int d = 10, N = 400, k = 5;
  const PointTable X = make_uniform(d, N, 0x5EED);

  // Four skewed tasks over disjoint query groups, shared global table.
  struct Group {
    std::vector<int> q, r;
  };
  std::vector<Group> groups(4);
  for (int g = 0; g < 4; ++g) {
    for (int i = g * 100; i < g * 100 + 30 + g * 20; ++i) {
      (i % 3 == 0 ? groups[static_cast<std::size_t>(g)].q
                  : groups[static_cast<std::size_t>(g)].r)
          .push_back(i);
    }
  }

  NeighborTable batched(N, k);
  std::vector<KnnTask> tasks;
  for (auto& g : groups) {
    tasks.push_back(KnnTask{g.q, g.r, &batched, g.q});
  }
  knn_batch(X, tasks, k, {});

  NeighborTable serial(N, k);
  for (auto& g : groups) {
    knn_kernel(X, g.q, g.r, serial, {}, g.q);
  }

  for (int i = 0; i < N; ++i) {
    const auto a = batched.sorted_row(i);
    const auto b = serial.sorted_row(i);
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j], b[j]) << "row " << i;
    }
  }
}

TEST(KnnBatch, EmptyBatchIsNoop) {
  const PointTable X = make_uniform(4, 10, 1);
  knn_batch(X, {}, 3, {});
}

TEST(KnnBatch, SingleTask) {
  const PointTable X = make_uniform(6, 50, 2);
  std::vector<int> q(20), r(30);
  std::iota(q.begin(), q.end(), 0);
  std::iota(r.begin(), r.end(), 20);
  NeighborTable t(20, 4);
  const KnnTask task{q, r, &t, {}};
  knn_batch(X, std::span(&task, 1), 4, {});
  const auto expect = test::brute_force_knn(X, q, r, 4);
  for (int i = 0; i < 20; ++i) {
    const auto row = t.sorted_row(i);
    ASSERT_EQ(row.size(), 4u);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(row[j].first, expect[static_cast<std::size_t>(i)][j].first,
                  1e-9);
    }
  }
}

TEST(KnnBatch, ManyTinyTasks) {
  const int N = 300, k = 2;
  const PointTable X = make_uniform(8, N, 3);
  std::vector<std::vector<int>> qs, rs;
  for (int g = 0; g < 30; ++g) {
    std::vector<int> q = {g * 10, g * 10 + 1};
    std::vector<int> r;
    for (int i = 2; i < 10; ++i) r.push_back(g * 10 + i);
    qs.push_back(q);
    rs.push_back(r);
  }
  NeighborTable t(N, k);
  std::vector<KnnTask> tasks;
  for (int g = 0; g < 30; ++g) {
    tasks.push_back(KnnTask{qs[static_cast<std::size_t>(g)],
                            rs[static_cast<std::size_t>(g)], &t,
                            qs[static_cast<std::size_t>(g)]});
  }
  knn_batch(X, tasks, k, {});
  for (int g = 0; g < 30; ++g) {
    const auto expect = test::brute_force_knn(
        X, qs[static_cast<std::size_t>(g)], rs[static_cast<std::size_t>(g)], k);
    for (std::size_t i = 0; i < 2; ++i) {
      const auto row = t.sorted_row(qs[static_cast<std::size_t>(g)][i]);
      ASSERT_EQ(row.size(), 2u);
      EXPECT_NEAR(row[0].first, expect[i][0].first, 1e-9);
      EXPECT_NEAR(row[1].first, expect[i][1].first, 1e-9);
    }
  }
}

// Two tasks writing the same row of one shared table would race on that
// row's heap; the batch driver must reject the overlap up front, before any
// task has run.
TEST(KnnBatch, OverlappingRowsOfSharedTableRejected) {
  const PointTable X = make_uniform(4, 40, 7);
  std::vector<int> r(20);
  std::iota(r.begin(), r.end(), 10);
  for (const Form form : kForms) {
    SCOPED_TRACE(form_name(form));
    NeighborTable t(4, 3);
    SharedRefBatch batch(X, r);
    batch.add({0, 1}, &t, {0, 1});
    batch.add({2, 3}, &t, {1, 2});  // row 1 collides with task 1
    EXPECT_EQ(batch.run(form, 3, {}), Status::kInvalidArgument);
    // Rejected up front: no task ran, the table is untouched.
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(t.sorted_row(i).empty()) << "row " << i;
    }
  }
  // The throwing face reports the same rejection.
  NeighborTable t(4, 3);
  const std::vector<int> q1 = {0, 1}, q2 = {2, 3}, rows1 = {0, 1},
                         rows2 = {1, 2};
  const std::vector<KnnTask> tasks = {KnnTask{q1, r, &t, rows1},
                                      KnnTask{q2, r, &t, rows2}};
  try {
    knn_batch(X, tasks, 3, {});
    FAIL() << "overlapping rows accepted";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kInvalidArgument);
  }
}

// The implicit row range (empty result_rows = rows [0, m)) participates in
// the same overlap check.
TEST(KnnBatch, ImplicitRowsOverlapRejected) {
  const PointTable X = make_uniform(4, 40, 8);
  std::vector<int> r(20);
  std::iota(r.begin(), r.end(), 10);
  for (const Form form : kForms) {
    SCOPED_TRACE(form_name(form));
    NeighborTable t(5, 3);
    SharedRefBatch batch(X, r);
    batch.add({0, 1, 2}, &t);
    batch.add({3, 4}, &t, {2, 3});  // row 2 collides with implicit 0..2
    EXPECT_EQ(batch.run(form, 3, {}), Status::kInvalidArgument);
  }
}

// Disjoint-row sharing — the tree solvers' global-table pattern — must keep
// working, including across separate tables (rows only collide within one
// table).
TEST(KnnBatch, DisjointRowsAndSeparateTablesStillLegal) {
  const PointTable X = make_uniform(4, 40, 9);
  std::vector<int> q1 = {0, 1}, q2 = {2, 3};
  std::vector<int> r(20);
  std::iota(r.begin(), r.end(), 10);
  NeighborTable shared(4, 3);
  NeighborTable own(2, 3);
  const std::vector<int> rows1 = {0, 1};
  const std::vector<int> rows2 = {2, 3};
  const std::vector<int> rows3 = {0, 1};  // same numbers, different table
  const std::vector<KnnTask> tasks = {KnnTask{q1, r, &shared, rows1},
                                      KnnTask{q2, r, &shared, rows2},
                                      KnnTask{q1, r, &own, rows3}};
  knn_batch(X, tasks, 3, {});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(shared.sorted_row(i).size(), 3u) << "row " << i;
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(own.sorted_row(i).size(), 3u) << "row " << i;
  }
}

#if defined(_OPENMP)
// Regression: the LPT schedule targets p = resolve_threads(cfg.threads)
// workers, but an OpenMP runtime can deliver a smaller team — most simply
// when the batch runs inside an enclosing parallel region with nesting
// capped (max-active-levels=1, libgomp's default). Tasks assigned to the
// absent workers used to be silently skipped: never run, never flagged, so
// their result rows held stale sentinels that row_complete() reported as
// complete. The fix folds absent workers' queues onto the live threads.
TEST(KnnBatch, ShrunkenTeamStillRunsEveryTask) {
  const int N = 240, k = 3;
  const PointTable X = make_uniform(6, N, 0xA11);
  std::vector<std::vector<int>> qs;
  std::vector<int> r;
  for (int g = 0; g < 8; ++g) {
    qs.push_back({g * 30, g * 30 + 1, g * 30 + 2});
    for (int i = 3; i < 30; ++i) r.push_back(g * 30 + i);
  }
  for (const Form form : kForms) {
    SCOPED_TRACE(form_name(form));
    NeighborTable t(N, k);
    SharedRefBatch batch(X, r);
    for (const auto& q : qs) batch.add(q, &t, q);

    const int saved_levels = omp_get_max_active_levels();
    omp_set_max_active_levels(1);  // nested region below gets a team of 1
    KnnConfig cfg;
    cfg.threads = 4;  // LPT schedules for 4 workers; only 1 will materialize
    Status s = Status::kInternal;
#pragma omp parallel num_threads(2)
    {
#pragma omp single
      { s = batch.run(form, k, cfg); }
    }
    omp_set_max_active_levels(saved_levels);

    ASSERT_EQ(s, Status::kOk);
    for (std::size_t g = 0; g < qs.size(); ++g) {
      const auto expect = test::brute_force_knn(X, qs[g], r, k);
      for (std::size_t i = 0; i < qs[g].size(); ++i) {
        EXPECT_TRUE(t.row_complete(qs[g][i])) << "row " << qs[g][i];
        const auto row = t.sorted_row(qs[g][i]);
        ASSERT_EQ(row.size(), static_cast<std::size_t>(k))
            << "row " << qs[g][i];
        for (std::size_t j = 0; j < row.size(); ++j) {
          EXPECT_NEAR(row[j].first, expect[i][j].first, 1e-9)
              << "group " << g << " row " << i;
        }
      }
    }
  }
}

// Regression: an already-expired shared deadline must mark EVERY task's rows
// incomplete — including tasks the LPT schedule assigned to workers the
// runtime never delivered. Before the fold, those tasks' rows stayed
// row_complete()==true while holding unsifted sentinels.
TEST(KnnBatch, ExpiredDeadlineFlagsTasksOfAbsentWorkers) {
  const int N = 160, k = 3;
  const PointTable X = make_uniform(5, N, 0xA12);
  std::vector<std::vector<int>> qs;
  std::vector<int> r;
  for (int g = 0; g < 8; ++g) {
    qs.push_back({g * 20, g * 20 + 1});
    for (int i = 2; i < 20; ++i) r.push_back(g * 20 + i);
  }
  for (const Form form : kForms) {
    SCOPED_TRACE(form_name(form));
    NeighborTable t(N, k);
    SharedRefBatch batch(X, r);
    for (const auto& q : qs) batch.add(q, &t, q);

    const int saved_levels = omp_get_max_active_levels();
    omp_set_max_active_levels(1);
    KnnConfig cfg;
    cfg.threads = 4;
    cfg.deadline = deadline_after_ms(0);  // expired before any task starts
    Status s = Status::kInternal;
#pragma omp parallel num_threads(2)
    {
#pragma omp single
      { s = batch.run(form, k, cfg); }
    }
    omp_set_max_active_levels(saved_levels);

    ASSERT_EQ(s, Status::kDeadlineExceeded);
    for (const auto& q : qs) {
      for (const int row : q) {
        EXPECT_FALSE(t.row_complete(row)) << "row " << row;
      }
    }
  }
}
#endif  // _OPENMP

}  // namespace
}  // namespace gsknn
