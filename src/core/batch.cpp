// Task-parallel batch driver (§2.5). Many small independent kernels (one
// per tree leaf in the approximate solvers) rarely expose enough
// intra-kernel parallelism, so whole kernels are scheduled across cores:
// estimate each with the §2.6 model, sort descending, and assign greedily to
// the least-loaded worker (first-termination / LPT list scheduling). One
// scheduler serves both task forms through a reference source: cold tasks
// bring their own ridx and run the cold kernel; packed tasks share one
// PackedRefs snapshot and run the warm kernel, so a block is packed at most
// once across the whole batch (pin counts make concurrent leases safe).
//
// Governance: cancellation/deadline is polled between tasks (and inside
// each task kernel, at its block boundaries); on a stop, not-yet-started
// tasks are skipped with their result rows flagged incomplete. Tasks that
// share one NeighborTable must target disjoint rows — overlap is rejected
// up front (it would be a silent data race between workers).
#include <algorithm>
#include <atomic>
#include <climits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gsknn/common/metrics.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/model/perf_model.hpp"

namespace gsknn {

namespace {

/// Flag every result row a task owns as incomplete (skipped/starved tasks).
/// Disjointness of rows across tasks sharing a table (validated below) makes
/// concurrent marking from several workers race-free — distinct bytes.
template <typename Task>
void mark_task_incomplete(const Task& task) {
  if (!task.result_rows.empty()) {
    for (const int r : task.result_rows) task.result->mark_row_incomplete(r);
  } else {
    const int mq = static_cast<int>(task.qidx.size());
    for (int i = 0; i < mq; ++i) task.result->mark_row_incomplete(i);
  }
}

/// Cold reference source: each task's own ridx, run by the cold kernel.
/// `blocking` is what the LPT estimates price; cold tasks have no epoch.
struct ColdSource {
  const PointTable& X;
  BlockingParams blocking;
  bool stale = false;

  std::span<const int> ridx(const KnnTask& task) const { return task.ridx; }
  Status run(const KnnTask& task, const KnnConfig& cfg) const {
    return knn_kernel_status(X, task.qidx, task.ridx, *task.result, cfg,
                             task.result_rows);
  }
};

/// Packed reference source: one atomic (id list, epoch) capture for the
/// whole batch, so validation, scheduling and every task kernel run against
/// one generation, immune to a concurrent insert()/erase() swapping the
/// list mid-batch. kEpochAny resolves to the captured epoch, and every task
/// kernel pins its blocks against it: an update racing the batch stops the
/// affected tasks with a clean kStale (rows flagged incomplete) instead of
/// mixing generations.
struct PackedSource {
  PackedSource(PackedRefs& r, std::uint64_t expected_epoch)
      : refs(r),
        X(*r.table()),
        snap(r.snapshot()),
        blocking(r.blocking()),
        stale(expected_epoch != kEpochAny && expected_epoch != snap.epoch) {}

  std::span<const int> ridx(const PackedKnnTask&) const { return *snap.ids; }
  Status run(const PackedKnnTask& task, const KnnConfig& cfg) const {
    return knn_kernel_status(refs, task.qidx, *task.result, cfg,
                             task.result_rows, snap.epoch);
  }

  PackedRefs& refs;
  const PointTable& X;
  const PackedRefs::Snapshot snap;
  const BlockingParams blocking;
  const bool stale;  ///< the batch-level epoch handshake failed
};

/// The one batch scheduler; `src` is a ColdSource or a PackedSource.
template <typename Task, typename Source>
Status run_batch(std::span<const Task> tasks, int k, const KnnConfig& cfg,
                 const Source& src) {
  const int t = static_cast<int>(tasks.size());
  if (t == 0) return Status::kOk;
  const int p = resolve_threads(cfg.threads);
  const PointTable& X = src.X;

  // Validate every task before the OpenMP region (a worker-side StatusError
  // could not propagate out of #pragma omp parallel). One bad task fails the
  // whole batch up front, before any task has run. Tasks may share a
  // NeighborTable only on disjoint rows (the tree solvers' global-table
  // pattern): overlap would let two concurrent workers sift the same heap,
  // so it is rejected here, once check_knn_args has bounds-checked the row
  // list. A task without result_rows owns rows [0, m) of its table.
  for (const Task& task : tasks) {
    if (task.result == nullptr) {
      throw StatusError(Status::kInvalidArgument,
                        "gsknn: batch task has a null result table");
    }
    check_knn_args(X, task.qidx, src.ridx(task), *task.result, cfg,
                   task.result_rows);
  }
  std::unordered_map<const NeighborTable*, std::vector<unsigned char>> used;
  for (const Task& task : tasks) {
    auto& rows_used = used[task.result];
    if (rows_used.empty()) {
      rows_used.assign(static_cast<std::size_t>(task.result->rows()), 0);
    }
    const int mq = static_cast<int>(task.qidx.size());
    for (int qi = 0; qi < mq; ++qi) {
      const int r = task.result_rows.empty()
                        ? qi
                        : task.result_rows[static_cast<std::size_t>(qi)];
      if (rows_used[static_cast<std::size_t>(r)] != 0) {
        throw StatusError(
            Status::kInvalidArgument,
            "gsknn: batch tasks write overlapping rows of a shared result "
            "table");
      }
      rows_used[static_cast<std::size_t>(r)] = 1;
    }
  }
  // Epoch handshake, after validation and before any task runs: a stale
  // batch touches nothing.
  if (src.stale) return Status::kStale;

  // LPT scheduling over the per-task model estimates.
  std::vector<double> est(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    const Task& task = tasks[static_cast<std::size_t>(i)];
    est[static_cast<std::size_t>(i)] = core::predicted_call_seconds(
        static_cast<int>(task.qidx.size()),
        static_cast<int>(src.ridx(task).size()), X.dim(), k, cfg,
        src.blocking);
  }
  const std::vector<int> assignment = model::schedule_lpt(est, p);

  // Telemetry: per-worker private profiles (concurrent workers must not
  // share the caller's sink), merged after the region under one recorder.
  telemetry::KernelProfile combined;
  telemetry::Recorder rec(cfg.profile != nullptr ? &combined : nullptr, 1);
  std::vector<telemetry::KernelProfile> wprof(
      rec.active() ? static_cast<std::size_t>(p) : 0);

  // Batch-level stop: first pressure status wins; once set, every worker
  // skips its remaining tasks (flagging their rows). The task kernels poll
  // the same token/deadline at their own block boundaries, so an in-flight
  // task stops at block granularity, not task granularity.
  std::atomic<int> stop{0};
  const auto raise = [&stop](Status s) {
    int expected = 0;
    stop.compare_exchange_strong(expected, static_cast<int>(s),
                                 std::memory_order_relaxed);
  };
  const bool governed = core::stop_governed(cfg);

  // Each worker executes its tasks sequentially; kernels run single-threaded.
  // task_cfg copies cfg wholesale, so a TraceSink on cfg.trace is shared by
  // every task kernel (safe: per-thread rings) — the exported timeline shows
  // the LPT schedule directly, one track per worker — and the deadline/cancel
  // token rides into every task kernel the same way.
  KnnConfig task_cfg = cfg;
  task_cfg.threads = 1;
  // Tasks were validated above; skip re-validation inside the workers.
  task_cfg.validate = false;
#if defined(GSKNN_HAVE_OPENMP)
#pragma omp parallel num_threads(p)
#endif
  {
    const int tid = thread_id();
    // The LPT schedule targeted p workers, but the delivered team can be
    // smaller (nested parallelism with max-active-levels, runtime caps).
    // Fold the absent workers' queues onto live threads — owner % nt — so
    // every task runs exactly once; with a full team the fold is the
    // identity and the schedule is untouched.
    const int nt = team_size();
    KnnConfig my_cfg = task_cfg;
    my_cfg.profile =
        rec.active() ? &wprof[static_cast<std::size_t>(tid)] : nullptr;
    for (int i = 0; i < t; ++i) {
      if (assignment[static_cast<std::size_t>(i)] % nt != tid) continue;
      const Task& task = tasks[static_cast<std::size_t>(i)];
      if (stop.load(std::memory_order_relaxed) != 0) {
        mark_task_incomplete(task);
        continue;
      }
      const Status ps = governed ? core::poll_stop(cfg) : Status::kOk;
      if (ps != Status::kOk) {
        raise(ps);
        mark_task_incomplete(task);
        continue;
      }
      const Status s = src.run(task, my_cfg);
      if (s != Status::kOk) {
        // kCancelled/kDeadlineExceeded already flagged the rows the kernel
        // could not finish; after any other failure flag the whole task.
        if (s != Status::kCancelled && s != Status::kDeadlineExceeded) {
          mark_task_incomplete(task);
        }
        raise(s);
      }
    }
  }

  if (rec.active()) {
    // As with parallel_refs: report the batch's elapsed wall, not the summed
    // task walls; the summed phases are total busy time across all task
    // kernels, and each task kernel stays one invocation.
    for (const auto& wp : wprof) combined.merge(wp);
    const std::uint64_t task_calls = combined.invocations;
    combined.wall_seconds = 0.0;
    rec.aggregate();
    combined.invocations = task_calls;
    combined.algorithm = "gsknn_batch";
    combined.threads = p;
    cfg.profile->merge(combined);
  }
  return static_cast<Status>(stop.load(std::memory_order_acquire));
}

/// Batch-level shape for the aggregate metrics: queries and references
/// summed across tasks, clamped to INT_MAX (each task's kernel records its
/// own exact shape too).
template <typename Task, typename RefCount>
std::pair<int, int> batch_totals(std::span<const Task> tasks,
                                 RefCount refs_of) {
  std::size_t m = 0, n = 0;
  for (const Task& t : tasks) {
    m += t.qidx.size();
    n += refs_of(t);
  }
  const auto clamp = [](std::size_t v) {
    return static_cast<int>(std::min<std::size_t>(v, INT_MAX));
  };
  return {clamp(m), clamp(n)};
}

Status batch_entry(const PointTable& X, std::span<const KnnTask> tasks, int k,
                   const KnnConfig& cfg) {
  const auto totals = batch_totals(
      tasks, [](const KnnTask& t) { return t.ridx.size(); });
  return core::record_entry_status(
      metrics::EntryPoint::kBatch, totals.first, totals.second, X.dim(), k,
      [&] {
        const ColdSource src{X, cfg.blocking.value_or(default_blocking(
                                    cpu_features().best_level()))};
        return run_batch(tasks, k, cfg, src);
      });
}

Status batch_entry(PackedRefs& refs, std::span<const PackedKnnTask> tasks,
                   int k, const KnnConfig& cfg,
                   std::uint64_t expected_epoch) {
  const auto totals = batch_totals(tasks, [&](const PackedKnnTask&) {
    return static_cast<std::size_t>(refs.size());
  });
  const int d = refs.built() ? refs.table()->dim() : 0;
  return core::record_entry_status(
      metrics::EntryPoint::kBatch, totals.first, totals.second, d, k, [&] {
        if (!refs.built()) {
          throw StatusError(Status::kInvalidArgument,
                            "gsknn: PackedRefs::build() has not succeeded");
        }
        return run_batch(tasks, k, cfg, PackedSource(refs, expected_epoch));
      });
}

}  // namespace

void knn_batch(const PointTable& X, std::span<const KnnTask> tasks, int k,
               const KnnConfig& cfg) {
  core::throw_unless_ok(batch_entry(X, tasks, k, cfg),
                        "gsknn: batch stopped: ");
}

Status knn_batch_status(const PointTable& X, std::span<const KnnTask> tasks,
                        int k, const KnnConfig& cfg) {
  return core::status_of([&] { return batch_entry(X, tasks, k, cfg); });
}

void knn_batch(PackedRefs& refs, std::span<const PackedKnnTask> tasks, int k,
               const KnnConfig& cfg, std::uint64_t expected_epoch) {
  core::throw_unless_ok(batch_entry(refs, tasks, k, cfg, expected_epoch),
                        "gsknn: batch stopped: ");
}

Status knn_batch_status(PackedRefs& refs,
                        std::span<const PackedKnnTask> tasks, int k,
                        const KnnConfig& cfg, std::uint64_t expected_epoch) {
  return core::status_of(
      [&] { return batch_entry(refs, tasks, k, cfg, expected_epoch); });
}

}  // namespace gsknn
