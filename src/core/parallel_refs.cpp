// Reference-side data parallelism (§2.5, footnote 5).
//
// The paper's preferred scheme parallelizes the 4th (query) loop because
// reference-side parallelism "may lead to a potential race condition when
// updating the same neighbor list"; its footnote resolves the race on Xeon
// Phi "by creating private-per-thread heaps followed by a parallel merge".
// This is that scheme: each thread runs the sequential kernel over a
// contiguous slice of the references into a private table, then the tables
// are merged (query-parallel, race-free) into the caller's result.
//
// Governance: the private tables are allocated *before* the parallel region
// (an allocation failure maps to kResourceExhausted with the caller's result
// untouched), workers inherit the call's deadline/cancel token, and when any
// worker stops early the merge is skipped entirely — a partial merge would
// blend complete and incomplete slices into rows no flag could describe.
#include <new>
#include <vector>

#include "gsknn/common/metrics.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"

namespace gsknn {

namespace {

Status parallel_refs_impl(const PointTableT<double>& X,
                          std::span<const int> qidx, std::span<const int> ridx,
                          NeighborTable& result, const KnnConfig& cfg,
                          std::span<const int> result_rows) {
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  // Validate before the OpenMP region: a StatusError thrown by a worker
  // inside #pragma omp parallel could not propagate and would terminate.
  check_knn_args(X, qidx, ridx, result, cfg, result_rows);
  if (m == 0 || n == 0) return Status::kOk;
  const int threads = resolve_threads(cfg.threads);
  const int k = result.k();

  // Not enough reference work to split: run the plain kernel.
  if (threads <= 1 || n < 2 * threads) {
    return knn_kernel_status(X, qidx, ridx, result, cfg, result_rows);
  }

  // Private per-thread tables over identity rows. Dedup (if requested)
  // must only act within a slice here — across slices the same id cannot
  // appear twice unless it appeared twice in ridx, which the merge below
  // handles through the caller's table. Allocated here, not in the region:
  // a std::bad_alloc past this point could not escape the parallel region.
  KnnConfig worker_cfg = cfg;
  worker_cfg.threads = 1;
  // Arguments were validated above; don't repeat the opt-in O((m+n)·d)
  // finite scan once per worker.
  worker_cfg.validate = false;
  std::vector<NeighborTable> priv;
  const int chunk = (n + threads - 1) / threads;
  try {
    priv.resize(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      if (t * chunk >= n) break;  // empty slice: table stays 0-row
      priv[static_cast<std::size_t>(t)].resize(m, k, result.arity());
      if (cfg.dedup) priv[static_cast<std::size_t>(t)].enable_dedup_index();
    }
  } catch (const std::bad_alloc&) {
    return Status::kResourceExhausted;
  }

  // Telemetry: concurrent workers must not share one sink, so each records
  // into a private profile; the privates are merged into `combined` and the
  // merge phase is recorded on top of them, with the end-to-end wall time
  // replacing the summed per-worker walls. The trace sink (if any) IS
  // shared — my_cfg copies it from cfg — because its per-thread rings make
  // concurrent recording safe, giving one unified timeline across the
  // worker kernels and the merge.
  const bool prof = (cfg.profile != nullptr);
  telemetry::KernelProfile combined;
  telemetry::Recorder rec(prof ? &combined : nullptr, threads);
  std::vector<telemetry::KernelProfile> wprof(
      prof ? static_cast<std::size_t>(threads) : 0);
  std::vector<Status> wstat(static_cast<std::size_t>(threads), Status::kOk);

#if defined(GSKNN_HAVE_OPENMP)
#pragma omp parallel num_threads(threads)
#endif
  {
    const int t = thread_id();
    const int lo = t * chunk;
    const int hi = (lo + chunk < n) ? lo + chunk : n;
    if (lo < hi) {
      NeighborTable& mine = priv[static_cast<std::size_t>(t)];
      KnnConfig my_cfg = worker_cfg;
      my_cfg.profile = prof ? &wprof[static_cast<std::size_t>(t)] : nullptr;
      // knn_kernel_status never throws: pressure outcomes (cancellation,
      // deadline, exhaustion — the token/deadline ride in via worker_cfg)
      // come back as a Status this region can carry out safely.
      wstat[static_cast<std::size_t>(t)] = knn_kernel_status(
          X, qidx,
          ridx.subspan(static_cast<std::size_t>(lo),
                       static_cast<std::size_t>(hi - lo)),
          mine, my_cfg);
    }
  }

  for (const Status s : wstat) {
    if (s != Status::kOk) return s;  // merge skipped; result untouched
  }

  // Parallel merge: each query row is owned by one iteration, so inserting
  // every private candidate into the caller's row is race-free. Written as
  // parallel + for-nowait so each worker brackets its own chunk.
#if defined(GSKNN_HAVE_OPENMP)
#pragma omp parallel num_threads(threads)
#endif
  {
    telemetry::PhaseScope merge(telemetry::Phase::kMerge,
                                rec.slot(thread_id()), cfg.trace);
#if defined(GSKNN_HAVE_OPENMP)
#pragma omp for schedule(static) nowait
#endif
    for (int i = 0; i < m; ++i) {
      const int row =
          result_rows.empty() ? i : result_rows[static_cast<std::size_t>(i)];
      for (const auto& table : priv) {
        if (table.rows() == 0) continue;
        const double* d = table.row_dists(i);
        const int* ids = table.row_ids(i);
        for (int s = 0; s < table.row_stride(); ++s) {
          if (ids[s] == heap::kNoId) continue;
          if (cfg.dedup) {
            result.try_insert_unique(row, d[s], ids[s]);
          } else {
            result.try_insert(row, d[s], ids[s]);
          }
        }
      }
      // Every worker finished, so this row saw every candidate — re-arm any
      // completion flag left by an earlier interrupted call on this table.
      result.mark_row_complete(row);
    }
  }

  if (prof) {
    // Workers ran concurrently: the summed worker walls overstate elapsed
    // time, so report the call's actual wall and keep the summed phase
    // attribution (phase_seconds becomes total busy time across workers —
    // per-phase critical paths are not defined for task parallelism).
    for (const auto& wp : wprof) combined.merge(wp);
    combined.wall_seconds = 0.0;
    rec.aggregate();
    combined.pmu_enabled = combined.pmu_enabled || telemetry::pmu_available();
    combined.algorithm = "gsknn_parallel_refs";
    combined.m = m;
    combined.n = n;
    combined.threads = threads;
    // The workers are parts of ONE logical kernel call, not separate ones.
    combined.invocations = 1;
    cfg.profile->merge(combined);
  }
  return Status::kOk;
}

}  // namespace

namespace {

Status parallel_refs_entry(const PointTableT<double>& X,
                           std::span<const int> qidx,
                           std::span<const int> ridx, NeighborTable& result,
                           const KnnConfig& cfg,
                           std::span<const int> result_rows) {
  return core::record_entry_status(
      metrics::EntryPoint::kParallelRefs, static_cast<int>(qidx.size()),
      static_cast<int>(ridx.size()), X.dim(), result.k(), [&] {
        return parallel_refs_impl(X, qidx, ridx, result, cfg, result_rows);
      });
}

}  // namespace

void knn_kernel_parallel_refs(const PointTableT<double>& X,
                              std::span<const int> qidx,
                              std::span<const int> ridx,
                              NeighborTable& result, const KnnConfig& cfg,
                              std::span<const int> result_rows) {
  core::throw_unless_ok(
      parallel_refs_entry(X, qidx, ridx, result, cfg, result_rows),
      "gsknn: parallel_refs stopped: ");
}

Status knn_kernel_parallel_refs_status(const PointTableT<double>& X,
                                       std::span<const int> qidx,
                                       std::span<const int> ridx,
                                       NeighborTable& result,
                                       const KnnConfig& cfg,
                                       std::span<const int> result_rows) {
  return core::status_of([&] {
    return parallel_refs_entry(X, qidx, ridx, result, cfg, result_rows);
  });
}

}  // namespace gsknn
