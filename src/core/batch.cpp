// Task-parallel batch driver (§2.5).
//
// Many independent small kernels (one per tree leaf in the approximate
// solvers) rarely expose enough intra-kernel parallelism, so the paper
// schedules whole kernels across cores instead: estimate each kernel's
// runtime with the §2.6 model, sort descending, and greedily assign to the
// least-loaded processor (first-termination / LPT list scheduling).
//
// Governance: cancellation/deadline is polled between tasks (and inside
// each task kernel, at its block boundaries); on a stop, not-yet-started
// tasks are skipped with their result rows flagged incomplete. Tasks that
// share one NeighborTable must target disjoint rows — overlap is rejected
// up front (it would be a silent data race between workers).
#include <atomic>
#include <climits>
#include <new>
#include <unordered_map>
#include <vector>

#include "gsknn/common/fault.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/common/timer.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/model/perf_model.hpp"

namespace gsknn {

namespace {

/// Flag every result row a task owns as incomplete (skipped/starved tasks).
/// Disjointness of rows across tasks sharing a table (validated below) makes
/// concurrent marking from several workers race-free — distinct bytes.
void mark_task_incomplete(const KnnTask& task) {
  if (!task.result_rows.empty()) {
    for (const int r : task.result_rows) task.result->mark_row_incomplete(r);
  } else {
    const int mq = static_cast<int>(task.qidx.size());
    for (int i = 0; i < mq; ++i) task.result->mark_row_incomplete(i);
  }
}

void mark_task_incomplete(const PackedKnnTask& task) {
  if (!task.result_rows.empty()) {
    for (const int r : task.result_rows) task.result->mark_row_incomplete(r);
  } else {
    const int mq = static_cast<int>(task.qidx.size());
    for (int i = 0; i < mq; ++i) task.result->mark_row_incomplete(i);
  }
}

Status knn_batch_impl(const PointTable& X, std::span<const KnnTask> tasks,
                      int k, const KnnConfig& cfg) {
  const int t = static_cast<int>(tasks.size());
  if (t == 0) return Status::kOk;
  const int p = resolve_threads(cfg.threads);

  // Validate every task before the OpenMP region (a worker-side StatusError
  // could not propagate out of #pragma omp parallel). One bad task fails the
  // whole batch up front, before any task has run.
  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
    if (task.result == nullptr) {
      throw StatusError(Status::kInvalidArgument,
                        "gsknn: batch task has a null result table");
    }
    check_knn_args(X, task.qidx, task.ridx, *task.result, cfg,
                   task.result_rows);
  }

  // Tasks may share a NeighborTable only on disjoint rows (the tree solvers'
  // global-table pattern). Overlap would let two concurrent workers sift the
  // same heap — a silent race — so reject it here, where check_knn_args has
  // already bounds-checked every row list. A task without result_rows owns
  // rows [0, m) of its table.
  std::unordered_map<const NeighborTable*, std::vector<unsigned char>> used;
  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
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

  // Estimate per-task runtimes with the performance model.
  static const model::MachineParams mp{};
  const BlockingParams bp =
      cfg.blocking.value_or(default_blocking(cpu_features().best_level()));
  std::vector<double> est(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
    const model::ProblemShape s{static_cast<int>(task.qidx.size()),
                                static_cast<int>(task.ridx.size()), X.dim(),
                                k};
    const Variant v = resolve_variant(s.m, s.n, s.d, s.k, cfg);
    est[static_cast<std::size_t>(i)] = model::predicted_time(
        v == Variant::kVar1 ? model::Method::kVar1 : model::Method::kVar6, s,
        mp, bp);
  }

  const std::vector<int> assignment = model::schedule_lpt(est, p);

  // Telemetry: per-worker private profiles (workers run concurrently and
  // must not share the caller's sink), merged after the region.
  const bool prof = (cfg.profile != nullptr);
  WallTimer wall_timer;
  std::vector<telemetry::KernelProfile> wprof(
      prof ? static_cast<std::size_t>(p) : 0);

  // Batch-level stop: first pressure status wins; once set, every worker
  // skips its remaining tasks (flagging their rows). The task kernels poll
  // the same token/deadline at their own block boundaries, so an in-flight
  // task stops at block granularity, not task granularity.
  std::atomic<int> stop{0};
  const bool governed =
      cfg.cancel != nullptr || cfg.deadline.has_value() || fault::active();
  const auto poll_status = [&cfg]() {
    if (fault::active() && fault::inject_cancel()) return Status::kCancelled;
    if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
      return Status::kCancelled;
    }
    if (cfg.deadline.has_value() && deadline_expired(*cfg.deadline)) {
      return Status::kDeadlineExceeded;
    }
    return Status::kOk;
  };

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
    // identity and the schedule is untouched. Before this remap, tasks
    // assigned to absent workers silently never ran and their result rows
    // were reported complete while holding stale sentinels.
    const int nt = team_size();
    KnnConfig my_cfg = task_cfg;
    my_cfg.profile = prof ? &wprof[static_cast<std::size_t>(tid)] : nullptr;
    for (int i = 0; i < t; ++i) {
      if (assignment[static_cast<std::size_t>(i)] % nt != tid) continue;
      const auto& task = tasks[static_cast<std::size_t>(i)];
      if (stop.load(std::memory_order_relaxed) != 0) {
        mark_task_incomplete(task);
        continue;
      }
      if (governed) {
        const Status ps = poll_status();
        if (ps != Status::kOk) {
          int expected = 0;
          stop.compare_exchange_strong(expected, static_cast<int>(ps),
                                       std::memory_order_relaxed);
          mark_task_incomplete(task);
          continue;
        }
      }
      const Status s = knn_kernel_status(X, task.qidx, task.ridx,
                                         *task.result, my_cfg,
                                         task.result_rows);
      if (s != Status::kOk) {
        // kCancelled/kDeadlineExceeded already flagged the rows the kernel
        // could not finish; exhaustion/internal left rows untouched and
        // unflagged, so flag the whole task.
        if (s != Status::kCancelled && s != Status::kDeadlineExceeded) {
          mark_task_incomplete(task);
        }
        int expected = 0;
        stop.compare_exchange_strong(expected, static_cast<int>(s),
                                     std::memory_order_relaxed);
      }
    }
  }

  if (prof) {
    telemetry::KernelProfile combined;
    for (const auto& wp : wprof) combined.merge(wp);
    // As with parallel_refs: report the batch's real elapsed time; the
    // summed phases are total busy time across all task kernels.
    combined.wall_seconds = wall_timer.seconds();
    combined.algorithm = "gsknn_batch";
    combined.threads = p;
    cfg.profile->merge(combined);
  }
  return static_cast<Status>(stop.load(std::memory_order_acquire));
}

/// Packed batch: same LPT scheduling and governance as knn_batch_impl, but
/// every task queries one shared PackedRefs cache — workers run the warm
/// single-threaded kernel, so a block is packed at most once across the
/// whole batch (the cache's pin counts make concurrent leases safe) and
/// repeat traffic moves zero packed reference bytes.
Status knn_batch_packed_impl(PackedRefs& refs,
                             std::span<const PackedKnnTask> tasks, int k,
                             const KnnConfig& cfg,
                             std::uint64_t expected_epoch) {
  const int t = static_cast<int>(tasks.size());
  if (!refs.built()) {
    throw StatusError(Status::kInvalidArgument,
                      "gsknn: PackedRefs::build() has not succeeded");
  }
  if (t == 0) return Status::kOk;
  const int p = resolve_threads(cfg.threads);
  const PointTable& X = *refs.table();
  // One atomic (id list, epoch) capture for the whole batch: validation,
  // scheduling and every task kernel run against this generation, immune to
  // a concurrent insert()/erase() swapping the list mid-batch.
  const PackedRefs::Snapshot snap = refs.snapshot();
  const std::span<const int> ridx(*snap.ids);

  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
    if (task.result == nullptr) {
      throw StatusError(Status::kInvalidArgument,
                        "gsknn: batch task has a null result table");
    }
    check_knn_args(X, task.qidx, ridx, *task.result, cfg, task.result_rows);
  }
  // Batch-level epoch handshake, after validation and before any task runs:
  // a stale batch touches nothing. kEpochAny resolves to the entry epoch
  // here, and every task kernel pins its blocks against that resolved
  // generation — an update racing the batch stops affected tasks with a
  // clean kStale (rows flagged incomplete) instead of mixing generations.
  if (expected_epoch != kEpochAny && expected_epoch != snap.epoch) {
    return Status::kStale;
  }
  const std::uint64_t run_epoch = snap.epoch;

  std::unordered_map<const NeighborTable*, std::vector<unsigned char>> used;
  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
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

  // LPT scheduling over the model estimates; every task shares n = |refs|,
  // so the estimates differ only through m.
  static const model::MachineParams mp{};
  const BlockingParams bp = refs.blocking();
  std::vector<double> est(static_cast<std::size_t>(t));
  for (int i = 0; i < t; ++i) {
    const auto& task = tasks[static_cast<std::size_t>(i)];
    const model::ProblemShape s{static_cast<int>(task.qidx.size()),
                                static_cast<int>(ridx.size()), X.dim(), k};
    const Variant v = resolve_variant(s.m, s.n, s.d, s.k, cfg);
    est[static_cast<std::size_t>(i)] = model::predicted_time(
        v == Variant::kVar1 ? model::Method::kVar1 : model::Method::kVar6, s,
        mp, bp);
  }
  const std::vector<int> assignment = model::schedule_lpt(est, p);

  const bool prof = (cfg.profile != nullptr);
  WallTimer wall_timer;
  std::vector<telemetry::KernelProfile> wprof(
      prof ? static_cast<std::size_t>(p) : 0);

  std::atomic<int> stop{0};
  const bool governed =
      cfg.cancel != nullptr || cfg.deadline.has_value() || fault::active();
  const auto poll_status = [&cfg]() {
    if (fault::active() && fault::inject_cancel()) return Status::kCancelled;
    if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
      return Status::kCancelled;
    }
    if (cfg.deadline.has_value() && deadline_expired(*cfg.deadline)) {
      return Status::kDeadlineExceeded;
    }
    return Status::kOk;
  };

  KnnConfig task_cfg = cfg;
  task_cfg.threads = 1;
  task_cfg.validate = false;
#if defined(GSKNN_HAVE_OPENMP)
#pragma omp parallel num_threads(p)
#endif
  {
    const int tid = thread_id();
    // Same absent-worker fold as knn_batch_impl: the delivered team can be
    // smaller than the p the LPT schedule targeted.
    const int nt = team_size();
    KnnConfig my_cfg = task_cfg;
    my_cfg.profile = prof ? &wprof[static_cast<std::size_t>(tid)] : nullptr;
    for (int i = 0; i < t; ++i) {
      if (assignment[static_cast<std::size_t>(i)] % nt != tid) continue;
      const auto& task = tasks[static_cast<std::size_t>(i)];
      if (stop.load(std::memory_order_relaxed) != 0) {
        mark_task_incomplete(task);
        continue;
      }
      if (governed) {
        const Status ps = poll_status();
        if (ps != Status::kOk) {
          int expected = 0;
          stop.compare_exchange_strong(expected, static_cast<int>(ps),
                                       std::memory_order_relaxed);
          mark_task_incomplete(task);
          continue;
        }
      }
      const Status s = knn_kernel_status(refs, task.qidx, *task.result,
                                         my_cfg, task.result_rows,
                                         run_epoch);
      if (s != Status::kOk) {
        if (s != Status::kCancelled && s != Status::kDeadlineExceeded) {
          mark_task_incomplete(task);
        }
        int expected = 0;
        stop.compare_exchange_strong(expected, static_cast<int>(s),
                                     std::memory_order_relaxed);
      }
    }
  }

  if (prof) {
    telemetry::KernelProfile combined;
    for (const auto& wp : wprof) combined.merge(wp);
    combined.wall_seconds = wall_timer.seconds();
    combined.algorithm = "gsknn_batch";
    combined.threads = p;
    cfg.profile->merge(combined);
  }
  return static_cast<Status>(stop.load(std::memory_order_acquire));
}

/// Batch-level shape for the aggregate metrics: queries/references summed
/// across tasks (each task's kernel records its own exact shape too).
void batch_totals(std::span<const KnnTask> tasks, int& m_total,
                  int& n_total) {
  std::size_t m = 0, n = 0;
  for (const KnnTask& t : tasks) {
    m += t.qidx.size();
    n += t.ridx.size();
  }
  m_total = m > static_cast<std::size_t>(INT_MAX) ? INT_MAX
                                                  : static_cast<int>(m);
  n_total = n > static_cast<std::size_t>(INT_MAX) ? INT_MAX
                                                  : static_cast<int>(n);
}

void packed_batch_totals(const PackedRefs& refs,
                         std::span<const PackedKnnTask> tasks, int& m_total,
                         int& n_total) {
  std::size_t m = 0;
  for (const PackedKnnTask& t : tasks) m += t.qidx.size();
  m_total = m > static_cast<std::size_t>(INT_MAX) ? INT_MAX
                                                  : static_cast<int>(m);
  const std::size_t n = tasks.size() * static_cast<std::size_t>(refs.size());
  n_total = n > static_cast<std::size_t>(INT_MAX) ? INT_MAX
                                                  : static_cast<int>(n);
}

Status batch_entry(const PointTable& X, std::span<const KnnTask> tasks, int k,
                   const KnnConfig& cfg) {
  int m_total = 0, n_total = 0;
  batch_totals(tasks, m_total, n_total);
  return core::record_entry_status(
      metrics::EntryPoint::kBatch, m_total, n_total, X.dim(), k,
      [&] { return knn_batch_impl(X, tasks, k, cfg); });
}

Status batch_entry(PackedRefs& refs, std::span<const PackedKnnTask> tasks,
                   int k, const KnnConfig& cfg,
                   std::uint64_t expected_epoch) {
  int m_total = 0, n_total = 0;
  packed_batch_totals(refs, tasks, m_total, n_total);
  const int d = refs.built() ? refs.table()->dim() : 0;
  return core::record_entry_status(
      metrics::EntryPoint::kBatch, m_total, n_total, d, k, [&] {
        return knn_batch_packed_impl(refs, tasks, k, cfg, expected_epoch);
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
