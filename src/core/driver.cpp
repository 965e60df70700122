// The six-loop GSKNN driver (paper Algorithm 2.2).
//
// Loop nest (outermost first), identical to the Goto/BLIS partitioning:
//   6th  jc over n  (block nc)  — reference panel, packed Rc lives in L3
//   5th  pc over d  (block dc)  — depth block; rank-dc accumulation
//   4th  ic over m  (block mc)  — query panel, packed Qc in L2; OpenMP here
//   3rd  jr over nc (step nr)   — micro-panel of Rc promoted to L1
//   2nd  ir over mc (step mr)   — micro-panel of Qc
//   1st  (inside the micro-kernel) over dc
//
// Variant = the loop after which neighbor selection runs. Var#1 selects in
// the micro-kernel and, when d ≤ dc, never materializes distances at all;
// the other variants store finished distances into a query-major buffer and
// select at their loop boundary. Var#4 does not exist (distances are
// incomplete after the 4th loop — the paper eliminates it, and the Variant
// enum does not offer it).
//
// Resource governance (docs/ROBUSTNESS.md): every byte of workspace is
// planned up front (gsknn/core/workspace.hpp) and carved from per-call
// arenas, so allocation can only fail before the first result row is
// written; deadlines and cancellation are polled at block boundaries
// (5th-loop top and 4th-loop body entry), and an early stop flags the rows
// that missed candidates via NeighborTable::mark_row_incomplete.
//
// The whole driver is a template over the distance scalar: double is the
// paper-faithful path, float the single-precision extension. Only the
// micro-kernels and the blocking derivation differ per precision.
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

#include "gsknn/common/fault.hpp"
#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/common/telemetry.hpp"
#include "gsknn/common/threads.hpp"
#include "gsknn/common/workspace.hpp"
#include "gsknn/core/entry_metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/core/workspace.hpp"
#include "gsknn/model/perf_model.hpp"
#include "gsknn/select/batch_select.hpp"
#include "micro.hpp"
#include "pack.hpp"

namespace gsknn {

namespace core {
namespace {

/// Per-call workspace arenas (docs/ROBUSTNESS.md). The calling thread's
/// shared arena holds the packed Rc panel, reference norms and the distance
/// buffer; each OpenMP team thread's arena holds its private Qc panel, query
/// norms and deferred-selection candidate buffers. thread_local for the same
/// reason the old packing arenas were: the grow-only reservations stabilize
/// after the first call, and concurrent single-threaded kernel invocations
/// (knn_batch workers) get disjoint arenas for free.
WorkspaceArena& shared_arena() {
  thread_local WorkspaceArena arena;
  return arena;
}

WorkspaceArena& thread_arena() {
  thread_local WorkspaceArena arena;
  return arena;
}

/// Sentinel "heap row" for padded tile rows: root = -inf rejects everything.
template <typename T>
const T* neg_inf_row() {
  alignas(64) static const T row[kMaxMr] = {
      -std::numeric_limits<T>::infinity()};
  return row;
}

int kDummyIds[kMaxMr] = {-1, -1, -1, -1, -1, -1, -1, -1,
                         -1, -1, -1, -1, -1, -1, -1, -1};

/// Scan `len` contiguous finished distances and update one heap row.
/// Candidate j carries global id ids[j]. In GSKNN_PROFILE builds the
/// candidate/push/reject tallies accumulate into `tc` (exact: every one of
/// the `len` candidates lands in exactly one bucket).
template <typename T>
void row_select(const T* GSKNN_RESTRICT cand, const int* GSKNN_RESTRICT ids,
                int len, T* hd, int* hi, RowIdSet* hset, int k, int stride,
                HeapArity arity, bool dedup,
                telemetry::ThreadCounters* tc = nullptr) {
  [[maybe_unused]] std::uint64_t pushes = 0, rejects = 0;
  for (int j = 0; j < len; ++j) {
    const T dj = cand[j];
    // sel_accepts implements the selection contract: NaN distances and
    // lexicographic (distance, id) ties are rejected identically to the
    // fused micro-kernel paths, so every variant yields the same rows.
    if (!sel_accepts(dj, ids[j], hd, hi)) {
      if constexpr (telemetry::kCountersEnabled) ++rejects;
      continue;
    }
    if (dedup) {
      if (hset != nullptr) {
        if (!hset->insert_if_absent(ids[j])) {
          if constexpr (telemetry::kCountersEnabled) ++rejects;
          continue;
        }
      } else {
        bool present = false;
        for (int t = 0; t < stride; ++t) {
          if (hi[t] == ids[j]) {
            present = true;
            break;
          }
        }
        if (present) {
          if constexpr (telemetry::kCountersEnabled) ++rejects;
          continue;
        }
      }
    }
    sel_replace_root(hd, hi, k, arity, dj, ids[j]);
    if constexpr (telemetry::kCountersEnabled) ++pushes;
  }
  if constexpr (telemetry::kCountersEnabled) {
    if (tc != nullptr) {
      tc->add(telemetry::Counter::kCandidates,
              static_cast<std::uint64_t>(len));
      tc->add(telemetry::Counter::kHeapPushes, pushes);
      tc->add(telemetry::Counter::kRootRejects, rejects);
    }
  }
}

/// row_select for a Var#5/6 row with batch scratch (`sd`/`sid`,
/// heap::batch_scratch_len(len, k) each; planned only for rows without
/// dedup): heap::batch_select leaves the same sorted row, counting the
/// candidates that passed the root test as pushes.
template <typename T>
void row_select_batched(const T* GSKNN_RESTRICT cand,
                        const int* GSKNN_RESTRICT ids, int len, T* hd, int* hi,
                        int k, HeapArity arity, T* sd, int* sid,
                        telemetry::ThreadCounters* tc) {
  [[maybe_unused]] const int pushed =
      heap::batch_select(cand, ids, len, hd, hi, k, arity, sd, sid);
  if constexpr (telemetry::kCountersEnabled) {
    if (tc != nullptr) {
      tc->add(telemetry::Counter::kCandidates,
              static_cast<std::uint64_t>(len));
      tc->add(telemetry::Counter::kHeapPushes,
              static_cast<std::uint64_t>(pushed));
      tc->add(telemetry::Counter::kRootRejects,
              static_cast<std::uint64_t>(len - pushed));
    }
  }
}

/// The loop number a Variant names (telemetry metadata).
int variant_number(Variant v) {
  switch (v) {
    case Variant::kVar1:
      return 1;
    case Variant::kVar2:
      return 2;
    case Variant::kVar3:
      return 3;
    case Variant::kVar5:
      return 5;
    case Variant::kVar6:
      return 6;
    case Variant::kAuto:
      break;
  }
  return 0;
}

/// The d == 0 degenerate path, shared by the cold and packed drivers:
/// every point is the empty tuple and every pairwise distance is identically
/// 0 (cosine: 1, the zero-norm rule). Selection still honors dedup and the
/// lowest-id tie contract, so route a constant candidate row through the
/// ordinary row scan.
template <typename T>
Status degenerate_d0(const int* rid, int n, int m, NeighborTableT<T>& result,
                     const KnnConfig& cfg, std::span<const int> result_rows) {
  const T dist0 = (cfg.norm == Norm::kCosine) ? T(1) : T(0);
  AlignedBuffer<T> cand(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) cand.data()[j] = dist0;
  const int stride0 = result.row_stride();
  const HeapArity arity0 = result.arity();
  for (int i = 0; i < m; ++i) {
    const int row =
        result_rows.empty() ? i : result_rows[static_cast<std::size_t>(i)];
    row_select(cand.data(), rid, n, result.row_dists(row),
               result.row_ids(row), result.row_idset(row), result.k(),
               stride0, arity0, cfg.dedup);
  }
  return Status::kOk;
}

// ---- plan phase ------------------------------------------------------------
//
// The driver's pipeline is plan / pack / compute. The plan phase resolves
// everything the loop nest needs before a single byte moves: variant,
// micro-kernel, blocking, thread balancing and the byte-exact workspace
// plan. The pack phase is behind the RefPanels providers below (plus the
// per-thread Qc packing inside the nest); the compute phase is
// knn_kernel_compute.

/// Resolved plan for one kernel invocation.
template <typename T>
struct KernelPlanT {
  Variant requested = Variant::kVar1;  ///< resolved before any demotion
  Variant variant = Variant::kVar1;
  BlockingParams bp;       ///< balanced + retiled blocking
  MicroKernelT<T> mk;      ///< selected micro-kernel (fn, mr, nr)
  SimdLevel chosen = SimdLevel::kScalar;  ///< level the kernel dispatched to
  int threads = 1;
  bool needs_norms = false;
  bool defer_possible = false;
  WorkspacePlan ws;
};

/// Record the governance counters (and flight-recorder events) a finished
/// plan implies, plus the call's micro-kernel tile occupancy: m live query
/// rows against the mr-padded rows its mc-blocks compute.
void count_plan_events(const WorkspacePlan& ws, Variant requested, int m,
                       int mr) {
  const std::size_t mc = static_cast<std::size_t>(ws.blocking.mc);
  const std::size_t um = static_cast<std::size_t>(m);
  const std::size_t tile = static_cast<std::size_t>(mr);
  metrics::add_counter(metrics::Counter::kMicroRowsLive, um);
  metrics::add_counter(
      metrics::Counter::kMicroRowsPadded,
      um / mc * round_up(mc, tile) + round_up(um % mc, tile));
  if (ws.retile_steps > 0) {
    metrics::add_counter(metrics::Counter::kWorkspaceRetiledCalls);
    metrics::add_counter(metrics::Counter::kWorkspaceRetileSteps,
                         static_cast<std::uint64_t>(ws.retile_steps));
    flightrec::record(flightrec::Kind::kRetile, -1, 0,
                      static_cast<std::uint64_t>(ws.retile_steps));
  }
  if (ws.variant != requested) {
    metrics::add_counter(metrics::Counter::kVariantDemotions);
    flightrec::record(flightrec::Kind::kDemotion, -1, 0,
                      static_cast<std::uint64_t>(ws.variant));
  }
}

/// Cold-path plan: resolve variant, micro-kernel and blocking, balance mc
/// over the thread team, and run the workspace planner (which may demote
/// Var#6 and retile nc/mc/dc under a cap — all bitwise-result-preserving,
/// gsknn/core/workspace.hpp). Throws StatusError(kBadConfig) for blockings
/// no micro-kernel matches.
template <typename T>
Status plan_kernel(int m, int n, int d, int k, const KnnConfig& cfg,
                   KernelPlanT<T>& kp) {
  const Variant req_variant = resolve_variant(m, n, d, k, cfg);
  const SimdLevel level = cpu_features().best_level();
  kp.needs_norms = (cfg.norm == Norm::kL2Sq || cfg.norm == Norm::kCosine);
  resolve_kernel_and_blocking<T>(level, cfg, kp.mk, kp.bp, kp.chosen);
  kp.threads = resolve_threads(cfg.threads);
  kp.bp.mc = balanced_mc(m, kp.bp.mc, kp.mk.mr, kp.threads);
  kp.defer_possible = k >= kDeferMinK && defer_enabled();
  const std::size_t cap = cfg.max_workspace_bytes != 0
                              ? cfg.max_workspace_bytes
                              : max_workspace_env();
  kp.requested = req_variant;
  kp.ws = plan_workspace(m, n, d, req_variant, kp.bp, kp.mk.mr, kp.mk.nr,
                         kp.threads, kp.needs_norms, kp.defer_possible,
                         batch_select_k(k, cfg), sizeof(T), cap);
  if (!kp.ws.fits) return Status::kResourceExhausted;
  kp.variant = kp.ws.variant;
  kp.bp = kp.ws.blocking;
  return Status::kOk;
}

/// Warm-path plan: the pack geometry (nc, dc, nr, SIMD level) is pinned by
/// the cache — the kernel must walk the cached blocks exactly as they were
/// packed — so the plan selects the micro-kernel AT the cache's level for
/// the query norm, adopts the cache's blocking, and runs the planner in
/// packed_refs mode (Rc leaves the footprint; the ladder may only demote
/// Var#6 and halve mc). A query the cache cannot serve byte-identically —
/// incompatible layout class, or a norm whose kernel has a different sliver
/// width (float ℓp resolves to the scalar 8×4 kernel; an AVX2 8×8 cache
/// cannot feed it) — fails with kUnsupported, and the caller can fall back
/// to the cold path.
template <typename T>
Status plan_kernel_packed(const PackedRefsT<T>& refs, int m, int n, int d,
                          int k, const KnnConfig& cfg, KernelPlanT<T>& kp) {
  if (!refs.layout_compatible(cfg.norm)) return Status::kUnsupported;
  kp.mk = select_micro_t<T>(refs.level(), cfg.norm);
  kp.chosen = refs.level();
  kp.bp = refs.blocking();
  if (kp.mk.fn == nullptr || kp.mk.nr != kp.bp.nr) return Status::kUnsupported;
  kp.bp.mr = kp.mk.mr;
  kp.bp.mc = static_cast<int>(round_up(static_cast<std::size_t>(kp.bp.mc),
                                       static_cast<std::size_t>(kp.mk.mr)));
  if (cfg.blocking.has_value()) {
    // An explicit blocking override must agree with the cache on everything
    // the cached panels pin; only the query-side mc is free.
    const BlockingParams& ob = *cfg.blocking;
    if (!ob.valid()) {
      throw StatusError(Status::kBadConfig,
                        "gsknn: invalid blocking parameters");
    }
    if (ob.nc != kp.bp.nc || ob.dc != kp.bp.dc || ob.nr != kp.bp.nr ||
        ob.mr != kp.mk.mr) {
      return Status::kUnsupported;
    }
    kp.bp.mc = ob.mc;
  }
  kp.needs_norms = (cfg.norm == Norm::kL2Sq || cfg.norm == Norm::kCosine);
  kp.threads = resolve_threads(cfg.threads);
  kp.bp.mc = balanced_mc(m, kp.bp.mc, kp.mk.mr, kp.threads);
  kp.defer_possible = k >= kDeferMinK && defer_enabled();
  const Variant req_variant = resolve_variant(m, n, d, k, cfg);
  const std::size_t cap = cfg.max_workspace_bytes != 0
                              ? cfg.max_workspace_bytes
                              : max_workspace_env();
  kp.requested = req_variant;
  kp.ws = plan_workspace(m, n, d, req_variant, kp.bp, kp.mk.mr, kp.mk.nr,
                         kp.threads, kp.needs_norms, kp.defer_possible,
                         batch_select_k(k, cfg), sizeof(T), cap,
                         /*packed_refs=*/true);
  if (!kp.ws.fits) return Status::kResourceExhausted;
  kp.variant = kp.ws.variant;
  kp.bp = kp.ws.blocking;
  return Status::kOk;
}

// ---- pack phase (reference side) -------------------------------------------

/// Cold-path reference panels: pack each (jc, pc) slab into the shared
/// arena on demand — the pre-split driver's pack phase, verbatim. `rc`/`r2c`
/// are carved by the compute preamble.
template <typename T>
struct ArenaRefPanels {
  static constexpr bool kCached = false;
  const PointTableT<T>* X = nullptr;
  const int* ridx = nullptr;
  SimdLevel chosen = SimdLevel::kScalar;
  int tnr = 0;
  T* rc = nullptr;
  T* r2c = nullptr;
  const unsigned char* rbad = nullptr;  ///< ℓ∞ non-finite flags (may be null)
  bool any_bad = false;
  Status err = Status::kOk;  ///< never set on the cold path

  /// Pack slab (jc, pc); returns the panel base and reports the bytes moved.
  const T* get(int jc, int nb, int nbpad, int pc, int db, bool last,
               bool needs_norms, std::uint64_t& bytes) {
    pack_points_rt(tnr, chosen, *X, ridx, jc, nb, pc, db, rc);
    if (any_bad) poison_packed(rc, rbad, jc, nb, tnr, db);
    if (last && needs_norms) pack_norms_rt(tnr, *X, ridx, jc, nb, r2c);
    bytes = static_cast<std::uint64_t>(nbpad) * db * sizeof(T);
    if (last && needs_norms) {
      bytes += static_cast<std::uint64_t>(nbpad) * sizeof(T);
    }
    return rc;
  }
  const T* norms() const { return r2c; }
};

/// Warm-path reference panels: lease resident blocks from a PackedRefs
/// cache. One block is pinned at a time; a resident hit moves zero bytes
/// (the panels were packed by the same pack_points_rt/poison_packed calls
/// the cold provider makes, so the compute phase cannot tell the paths
/// apart). A failed acquire (allocation under a miss) surfaces through
/// `err` and stops the call like any other resource failure.
template <typename T>
struct CachedRefPanels {
  static constexpr bool kCached = true;
  PackedRefsT<T>* cache = nullptr;
  int nc = 0;
  std::uint64_t epoch = kEpochAny;  ///< generation every pin must match
  Status err = Status::kOk;
  int cur = -1;
  typename PackedRefsT<T>::Lease lease;

  const T* get(int jc, int nb, [[maybe_unused]] int nbpad, int pc, int db,
               bool last, bool needs_norms, std::uint64_t& bytes) {
    (void)nb;
    (void)db;
    (void)last;
    (void)needs_norms;
    const int b = jc / nc;
    bytes = 0;
    if (b != cur) {
      if (cur >= 0) cache->release(cur);
      cur = -1;
      const Status s = cache->acquire(b, lease, epoch);
      if (s != Status::kOk) {
        err = s;
        return nullptr;
      }
      cur = b;
      bytes = lease.bytes_packed;  // 0 on a warm hit
    }
    assert(lease.nbpad == nbpad);
    return lease.panel + static_cast<std::size_t>(lease.nbpad) * pc;
  }
  const T* norms() const { return lease.norms; }
  ~CachedRefPanels() {
    if (cur >= 0) cache->release(cur);
  }
};

// ---- compute phase ---------------------------------------------------------

/// The six-loop nest. Reference panels come from the RefPanels provider —
/// arena-packed (cold) or cache-leased (warm); everything else (query
/// packing, micro-kernels, selection, governance, telemetry) is one code
/// path, which is what makes cold and warm results bitwise-identical by
/// construction. `rid` is the reference id list the panels were packed from
/// (ridx.data() cold, refs.ids().data() warm).
template <typename T, typename RefPanels>
Status knn_kernel_compute(const PointTableT<T>& X, std::span<const int> qidx,
                          const int* rid, int n, NeighborTableT<T>& result,
                          const KnnConfig& cfg,
                          std::span<const int> result_rows,
                          const KernelPlanT<T>& kp, RefPanels& rpanels) {
  const int m = static_cast<int>(qidx.size());
  const int d = X.dim();
  const int k = result.k();

  // ℓ∞'s max-based accumulation cannot propagate NaN on its own (see
  // poison_packed in pack.hpp); pre-scan the query list once so the
  // per-block poison pass is skipped entirely on clean data. The reference
  // side is the provider's problem (cold: scanned by the caller; warm:
  // poisoned once at pack time inside the cache).
  std::vector<unsigned char> qbad;
  bool any_bad_q = false;
  if (cfg.norm == Norm::kLInf) {
    scan_nonfinite(X, qidx.data(), m, qbad, any_bad_q);
  }

  const Variant variant = kp.variant;
  const MicroFnT<T> micro = kp.mk.fn;
  const int tmr = kp.mk.mr;  // register-tile rows of the selected kernel
  const int tnr = kp.mk.nr;  // register-tile columns
  const SimdLevel chosen = kp.chosen;
  const int threads = kp.threads;
  const bool needs_norms = kp.needs_norms;
  const WorkspacePlan& plan = kp.ws;
  const bool defer_possible = kp.defer_possible;
  const int mc = kp.bp.mc;
  const int nc = kp.bp.nc;
  const int dc = kp.bp.dc;

  // Reserve every byte the call will touch before any result row can be
  // written: a genuine allocation failure (or an injected one;
  // gsknn/common/fault.hpp) surfaces here as kResourceExhausted with the
  // result untouched. nothing allocates inside the loop nest.
  std::atomic<int> stop{0};  // 0 = running; else the Status ending the call
  try {
    shared_arena().reserve(plan.shared_bytes);
  } catch (const std::bad_alloc&) {
    return Status::kResourceExhausted;
  }
#if defined(GSKNN_HAVE_OPENMP)
  if (threads > 1) {
    // libgomp serves subsequent same-size regions from the same thread
    // pool, so reserving the per-thread arenas in this preamble region
    // covers the 4th-loop teams below (the body re-checks as insurance —
    // pool reuse is an implementation behavior, not a guarantee).
#pragma omp parallel num_threads(threads)
    {
      try {
        thread_arena().reserve(plan.per_thread_bytes);
      } catch (const std::bad_alloc&) {
        stop.store(static_cast<int>(Status::kResourceExhausted),
                   std::memory_order_relaxed);
      }
    }
    if (stop.load(std::memory_order_relaxed) != 0) {
      return Status::kResourceExhausted;
    }
  } else
#endif
  {
    try {
      thread_arena().reserve(plan.per_thread_bytes);
    } catch (const std::bad_alloc&) {
      return Status::kResourceExhausted;
    }
  }

  // Telemetry: every timed region below is a PhaseScope on its thread's
  // recorder slot. With no profile and no trace sink attached the scopes
  // read nothing — one predictable branch per cache block; counters
  // additionally require a GSKNN_PROFILE build.
  telemetry::Recorder rec(cfg.profile, threads);
  telemetry::TraceSink* const trace = cfg.trace;

  const auto heap_row = [&](int i) {
    return result_rows.empty() ? i : result_rows[static_cast<std::size_t>(i)];
  };
  const int stride = result.row_stride();
  const HeapArity arity = result.arity();

  // Deadline/cancellation polling (block boundaries only; the hot loops are
  // never touched). One relaxed atomic load when fault injection is disarmed
  // and no token/deadline is set — `governed` keeps even that off the
  // common path.
  const bool governed =
      cfg.cancel != nullptr || cfg.deadline.has_value() || fault::active();
  const auto poll_stop = [&]() {
    Status s = Status::kOk;
    if (fault::active() && fault::inject_cancel()) {
      s = Status::kCancelled;
    } else if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
      s = Status::kCancelled;
    } else if (cfg.deadline.has_value() && deadline_expired(*cfg.deadline)) {
      s = Status::kDeadlineExceeded;
    }
    if (s != Status::kOk) {
      int expected = 0;
      if (stop.compare_exchange_strong(expected, static_cast<int>(s),
                                       std::memory_order_relaxed)) {
        // The thread that flips the stop flag logs the one event (the
        // other threads observe the same stop at their next poll).
        flightrec::record(s == Status::kCancelled
                              ? flightrec::Kind::kCancel
                              : flightrec::Kind::kDeadline,
                          -1, static_cast<int>(s), 0);
      }
    }
  };

  // Per-query completion tracking for early stops. Var#1/2/3 select inside
  // the 4th-loop body, so an mc-block's rows are complete iff the block's
  // last-depth body ran for every jc panel; block_pass counts those. Each
  // entry is written by the one thread owning that ic iteration and read
  // only after the region's barrier — no atomics needed. Var#5/6 select in
  // dedicated regions that are skipped wholesale on a stop, so completion
  // there is all-or-nothing.
  const int num_jc_blocks = static_cast<int>(ceil_div(n, nc));
  std::vector<int> block_pass(
      static_cast<std::size_t>(ceil_div(m, mc)), 0);

  // Shared-arena carving, byte-for-byte the plan's footprint. The distance
  // buffer: Var#1 needs it only to carry rank-dc accumulation when d > dc;
  // Var#2/3/5 hold the current nc-wide panel; Var#6 holds the full m × n
  // matrix.
  const int db_max = (d < dc) ? d : dc;
  const int nbpad_max = static_cast<int>(round_up(
      static_cast<std::size_t>(n < nc ? n : nc), static_cast<std::size_t>(tnr)));
  const bool needs_cbuf = (variant != Variant::kVar1) || (d > dc);
  const int width = (variant == Variant::kVar6) ? n : (n < nc ? n : nc);
  const int wpad = static_cast<int>(round_up(static_cast<std::size_t>(width),
                                             static_cast<std::size_t>(tnr)));
  const int mpad = static_cast<int>(round_up(static_cast<std::size_t>(m),
                                             static_cast<std::size_t>(tmr)));
  // Var#1's buffer is a pure rank-dc accumulator (only the micro-kernel ever
  // reads it back), so it uses column-major tiles with contiguous stores.
  // The selection variants scan query rows, so they pay the transposed
  // (query-major) layout. Either way the leading dimension gets one extra
  // cache line so power-of-two problem sizes don't alias all tile rows onto
  // a single cache set (pure conflict misses otherwise).
  const bool c_colmajor = (variant == Variant::kVar1);
  const int ld = (c_colmajor ? mpad : wpad) + static_cast<int>(64 / sizeof(T));
  WorkspaceArena& sws = shared_arena();
  if constexpr (!RefPanels::kCached) {
    // Cold path: the Rc panel (+ reference norms) is carved per call; the
    // warm path reads them out of the cache's resident blocks instead, and
    // the packed_refs workspace plan excluded them from shared_bytes.
    rpanels.rc = sws.alloc<T>(static_cast<std::size_t>(nbpad_max) * db_max);
    rpanels.r2c = needs_norms
                      ? sws.alloc<T>(static_cast<std::size_t>(nbpad_max))
                      : nullptr;
  }
  T* cbuf = nullptr;
  if (needs_cbuf) {
    // Var#6 materializes the full padded m × n panel: keep the size math in
    // 64 bits and assert the byte count fits before carving it (the int
    // block geometry alone cannot prove this).
    const std::uint64_t celems =
        static_cast<std::uint64_t>(ld) *
        static_cast<std::uint64_t>(c_colmajor ? wpad : mpad);
    assert(celems <= std::numeric_limits<std::size_t>::max() / sizeof(T));
    cbuf = sws.alloc<T>(static_cast<std::size_t>(celems));
  }

  // Selection over materialized distances, shared by Var#2 (per nr-sliver),
  // Var#3 (per mc x nc block) and Var#5/6 (per panel): rows [i0, i1) offer
  // the `len` finished distances at column `col` of their cbuf rows (ids
  // `ids`) to their heaps. Rows with batch scratch (`sd`/`sid`) go through
  // heap::batch_select, the rest one candidate at a time.
  const auto select_rows = [&](int i0, int i1, int col, const int* ids,
                               int len, T* sd, int* sid,
                               telemetry::ThreadCounters* tc) {
    for (int i = i0; i < i1; ++i) {
      const int row = heap_row(i);
      const T* const cand = cbuf + static_cast<long>(i) * ld + col;
      if (sd != nullptr) {
        row_select_batched(cand, ids, len, result.row_dists(row),
                           result.row_ids(row), k, arity, sd, sid, tc);
      } else {
        row_select(cand, ids, len, result.row_dists(row), result.row_ids(row),
                   result.row_idset(row), k, stride, arity, cfg.dedup, tc);
      }
    }
  };

  // The Var#5/6 selection region: every query row selects from the head of
  // its cbuf row. Each team thread rewinds its own arena — the 4th loop is
  // done with its Qc panel — for the batched-selection scratch the plan
  // sized; should the insurance reserve fail, its rows fall back to
  // per-candidate selection, which needs none. `trace_col` tags the trace
  // span (jc, or -1).
  const auto select_region = [&](const int* cids, int len, int trace_col) {
#if defined(GSKNN_HAVE_OPENMP)
#pragma omp parallel num_threads(threads)
#endif
    {
      telemetry::ThreadCounters* const tc = rec.slot(thread_id());
      telemetry::PhaseScope sel(telemetry::Phase::kSelect, tc, trace, -1,
                                trace_col);
      T* sd = nullptr;
      int* sid = nullptr;
      if (plan.batch_select) {
        WorkspaceArena& ws = thread_arena();
        bool reserved = true;
        if (ws.capacity() < plan.per_thread_bytes) {
          try {
            ws.reserve(plan.per_thread_bytes);
          } catch (const std::bad_alloc&) {
            reserved = false;
          }
        }
        if (reserved) {
          ws.rewind();
          const std::size_t sl = heap::batch_scratch_len(len, k);
          sd = ws.alloc<T>(sl);
          sid = ws.alloc<int>(sl);
        }
      }
#if defined(GSKNN_HAVE_OPENMP)
#pragma omp for schedule(static) nowait
#endif
      for (int i = 0; i < m; ++i) {
        select_rows(i, i + 1, 0, cids, len, sd, sid, tc);
      }
    }
  };

  for (int jc = 0; jc < n; jc += nc) {  // ---- 6th loop ----
    const int nb = (n - jc < nc) ? n - jc : nc;
    const int nbpad = static_cast<int>(round_up(static_cast<std::size_t>(nb),
                                                static_cast<std::size_t>(tnr)));
    const int colbase = (variant == Variant::kVar6) ? jc : 0;

    for (int pc = 0; pc < d; pc += dc) {  // ---- 5th loop ----
      if (stop.load(std::memory_order_relaxed) != 0) break;
      if (governed) {
        poll_stop();
        if (stop.load(std::memory_order_relaxed) != 0) break;
      }
      const int db = (d - pc < dc) ? d - pc : dc;
      const bool first = (pc == 0);
      const bool last = (pc + db >= d);
      // Deferred batched selection applies to the fused path when the sift
      // is deep enough to pay for the buffer bookkeeping: measured on the
      // table5 shapes, deferral is ~10% faster at k = 512 but loses below
      // k ≈ 256, where the sift is short and the stale prefilter roots admit
      // more candidates than the batching saves (see EXPERIMENTS.md
      // "Hot-path tuning"). The k == 1 non-dedup accept is already two
      // stores (sel_insert_raw), so deferral has nothing to amortize there.
      const bool defer_sel =
          (variant == Variant::kVar1) && last && defer_possible;

      // Pack phase, reference side: cold packs the slab into the arena and
      // reports its bytes; warm leases the cached block — 0 bytes on a
      // resident hit, which is exactly what kBytesPackedR then records.
      // pack-Rc runs outside the parallel region, on the master thread.
      telemetry::PhaseScope pack_r(telemetry::Phase::kPackR, rec.slot(0),
                                   trace, jc, pc);
      std::uint64_t pack_bytes = 0;
      const T* const rcp =
          rpanels.get(jc, nb, nbpad, pc, db, last, needs_norms, pack_bytes);
      pack_r.close();
      if (rcp == nullptr) {
        // Acquire failure (allocation under a cache miss): stop like any
        // other resource failure, with the affected rows flagged below.
        int expected = 0;
        stop.compare_exchange_strong(expected,
                                     static_cast<int>(rpanels.err),
                                     std::memory_order_relaxed);
        break;
      }
      const T* const r2cur = (last && needs_norms) ? rpanels.norms() : nullptr;
      if constexpr (telemetry::kCountersEnabled) {
        if (rec.active()) {
          rec.slot(0)->add(telemetry::Counter::kBytesPackedR, pack_bytes);
        }
      }

#if defined(GSKNN_HAVE_OPENMP)
#pragma omp parallel for schedule(static) num_threads(threads)
#endif
      for (int ic = 0; ic < m; ic += mc) {  // ---- 4th loop ----
        // Block-boundary cancellation point: a stop set while this body is
        // in flight lets it finish its whole block (per-row heap updates
        // are atomic w.r.t. their rows, so no torn rows either way).
        if (stop.load(std::memory_order_relaxed) != 0) continue;
        if (governed) {
          poll_stop();
          if (stop.load(std::memory_order_relaxed) != 0) continue;
        }
        // Exceptions must not escape the parallel region (that would
        // terminate the process). The only allocation reachable from here
        // is RowIdSet::grow under cfg.dedup — plus the insurance reserve
        // below — so the catch is a backstop, not a code path.
        try {
        const int mb = (m - ic < mc) ? m - ic : mc;
        const int mbpad = static_cast<int>(round_up(
            static_cast<std::size_t>(mb), static_cast<std::size_t>(tmr)));
        telemetry::ThreadCounters* const tc = rec.slot(thread_id());
        [[maybe_unused]] std::uint64_t tiles_local = 0, cand_local = 0;
        telemetry::PhaseScope pack_q(telemetry::Phase::kPackQ, tc, trace, ic,
                                     pc);
        WorkspaceArena& ws = thread_arena();
        if (ws.capacity() < plan.per_thread_bytes) {
          ws.reserve(plan.per_thread_bytes);  // preamble insurance (above)
        }
        ws.rewind();
        T* const qc = ws.alloc<T>(static_cast<std::size_t>(mbpad) * db);
        pack_points_rt(tmr, chosen, X, qidx.data(), ic, mb, pc, db, qc);
        if (any_bad_q) {
          poison_packed(qc, qbad.data(), ic, mb, tmr, db);
        }
        const T* q2c = nullptr;
        if (last && needs_norms) {
          T* const q2 = ws.alloc<T>(static_cast<std::size_t>(mbpad));
          pack_norms_rt(tmr, X, qidx.data(), ic, mb, q2);
          q2c = q2;
        }
        T* cand_d = nullptr;
        int* cand_id = nullptr;
        int* cand_cnt = nullptr;
        if (defer_sel) {
          cand_d = ws.alloc<T>(static_cast<std::size_t>(mbpad) * kCandBufLen);
          cand_id =
              ws.alloc<int>(static_cast<std::size_t>(mbpad) * kCandBufLen);
          cand_cnt = ws.alloc<int>(static_cast<std::size_t>(mbpad));
          for (int i = 0; i < mbpad; ++i) cand_cnt[i] = 0;
        }
        pack_q.close();
        if constexpr (telemetry::kCountersEnabled) {
          if (tc != nullptr) {
            std::uint64_t bytes =
                static_cast<std::uint64_t>(mbpad) * db * sizeof(T);
            if (last && needs_norms) {
              bytes += static_cast<std::uint64_t>(mbpad) * sizeof(T);
            }
            tc->add(telemetry::Counter::kBytesPackedQ, bytes);
          }
        }

        // The micro phase spans the whole 3rd loop plus the deferred drain
        // (for Var#1 that includes the fused selection); Var#2's per-sliver
        // selections are carved out of it.
        telemetry::PhaseScope micro_scope(telemetry::Phase::kMicro, tc, trace,
                                          ic, jc);

        for (int jr = 0; jr < nb; jr += tnr) {  // ---- 3rd loop ----
          const int cols = (nb - jr < tnr) ? nb - jr : tnr;
          const T* rs = rcp + static_cast<long>(jr) * db;
          const T* r2s = (last && needs_norms) ? r2cur + jr : nullptr;

          for (int ir = 0; ir < mb; ir += tmr) {  // ---- 2nd loop ----
            const int rows = (mb - ir < tmr) ? mb - ir : tmr;
            const T* qs = qc + static_cast<long>(ir) * db;
            const T* q2s = (last && needs_norms) ? q2c + ir : nullptr;

            T* ctile = nullptr;
            if (needs_cbuf) {
              ctile = c_colmajor
                          ? cbuf + (ic + ir) +
                                static_cast<long>(colbase + jr) * ld
                          : cbuf + static_cast<long>(ic + ir) * ld +
                                colbase + jr;
            }
            const T* cin = (!first && needs_cbuf) ? ctile : nullptr;
            T* cout = ctile;
            SelectCtxT<T> ctx;
            const SelectCtxT<T>* sel = nullptr;
            if (variant == Variant::kVar1 && last) {
              cout = nullptr;  // Var#1 discards the tile after selection
              for (int i = 0; i < tmr; ++i) {
                if (i < rows) {
                  const int row = heap_row(ic + ir + i);
                  ctx.hd[i] = result.row_dists(row);
                  ctx.hi[i] = result.row_ids(row);
                  ctx.hset[i] = result.row_idset(row);
                } else {
                  ctx.hd[i] = const_cast<T*>(neg_inf_row<T>());
                  ctx.hi[i] = kDummyIds;
                  ctx.hset[i] = nullptr;
                }
              }
              ctx.cand_ids = rid + jc + jr;
              ctx.k = k;
              ctx.row_stride = stride;
              ctx.arity = arity;
              ctx.dedup = cfg.dedup;
              ctx.tc = tc;
              if (defer_sel) {
                ctx.buf_d = cand_d + static_cast<long>(ir) * kCandBufLen;
                ctx.buf_id = cand_id + static_cast<long>(ir) * kCandBufLen;
                ctx.buf_cnt = cand_cnt + ir;
              }
              sel = &ctx;
              if constexpr (telemetry::kCountersEnabled) {
                // Pre-count every live tile candidate as a root-reject;
                // sel_insert reclassifies the accepted ones into pushes.
                cand_local += static_cast<std::uint64_t>(rows) * cols;
              }
            }

            micro(db, qs, rs, cin, ld, cout, ld, c_colmajor, q2s, r2s, last,
                  rows, cols, sel, cfg.p);
            if constexpr (telemetry::kCountersEnabled) ++tiles_local;
          }  // 2nd loop

          if (variant == Variant::kVar2 && last) {
            telemetry::PhaseScope sel(telemetry::Phase::kSelect, micro_scope,
                                      ic, jc + jr);
            select_rows(ic, ic + mb, jr, rid + jc + jr, cols, nullptr, nullptr,
                        tc);
          }
        }  // 3rd loop

        if (defer_sel) {
          // Drain the deferred candidate buffers once per mc-block. Part of
          // the fused selection, so it stays inside the micro-phase timing.
          for (int i = 0; i < mb; ++i) {
            const int row = heap_row(ic + i);
            sel_flush_raw(result.row_dists(row), result.row_ids(row),
                          result.row_idset(row), k, stride, arity, cfg.dedup,
                          tc, cand_d + static_cast<long>(i) * kCandBufLen,
                          cand_id + static_cast<long>(i) * kCandBufLen,
                          cand_cnt + i);
          }
        }

        micro_scope.close();

        if (variant == Variant::kVar3 && last) {
          telemetry::PhaseScope sel(telemetry::Phase::kSelect, tc, trace, ic,
                                    jc);
          select_rows(ic, ic + mb, 0, rid + jc, nb, nullptr, nullptr, tc);
        }
        if constexpr (telemetry::kCountersEnabled) {
          if (tc != nullptr) {
            tc->add(telemetry::Counter::kTiles, tiles_local);
            tc->add(telemetry::Counter::kCandidates, cand_local);
            tc->add(telemetry::Counter::kRootRejects, cand_local);
          }
        }
        if (last) ++block_pass[static_cast<std::size_t>(ic / mc)];
        } catch (const std::bad_alloc&) {
          int expected = 0;
          stop.compare_exchange_strong(
              expected, static_cast<int>(Status::kResourceExhausted),
              std::memory_order_relaxed);
        } catch (...) {
          int expected = 0;
          stop.compare_exchange_strong(expected,
                                       static_cast<int>(Status::kInternal),
                                       std::memory_order_relaxed);
        }
      }  // 4th loop
    }  // 5th loop

    if (variant == Variant::kVar5) {
      // Selection over the finished m × nc panel is all-or-nothing: poll
      // once before the region, never inside it, so a stop can't tear it.
      if (governed && stop.load(std::memory_order_relaxed) == 0) poll_stop();
      if (stop.load(std::memory_order_relaxed) == 0) {
        select_region(rid + jc, nb, jc);
      }
    }
    if (stop.load(std::memory_order_relaxed) != 0) break;
  }  // 6th loop

  if (variant == Variant::kVar6 && stop.load(std::memory_order_relaxed) == 0) {
    if (governed) poll_stop();
    if (stop.load(std::memory_order_relaxed) == 0) select_region(rid, n, -1);
  }

  const Status outcome =
      static_cast<Status>(stop.load(std::memory_order_acquire));
  if (outcome == Status::kOk) {
    // A finished run re-arms its rows: completion flags left over from an
    // earlier interrupted call on this table must not outlive a later call
    // that did offer every candidate to them.
    for (int i = 0; i < m; ++i) result.mark_row_complete(heap_row(i));
  } else {
    // Flag the rows that missed candidates. Var#1/2/3: per mc-block, rows
    // are complete iff every jc panel's last-depth body finished. Var#5/6:
    // a skipped selection region (or an unfinished accumulation) starves
    // every row uniformly.
    if (variant == Variant::kVar5 || variant == Variant::kVar6) {
      for (int i = 0; i < m; ++i) result.mark_row_incomplete(heap_row(i));
    } else {
      for (int ic = 0; ic < m; ic += mc) {
        if (block_pass[static_cast<std::size_t>(ic / mc)] >= num_jc_blocks) {
          continue;
        }
        const int mb = (m - ic < mc) ? m - ic : mc;
        for (int i = 0; i < mb; ++i) {
          result.mark_row_incomplete(heap_row(ic + i));
        }
      }
    }
  }

  if (rec.active()) {
    telemetry::KernelProfile& P = *cfg.profile;
    P.algorithm = "gsknn";
    P.precision = sizeof(T) == 8 ? "f64" : "f32";
    P.m = m;
    P.n = n;
    P.d = d;
    P.k = k;
    P.threads = threads;
    P.variant = variant_number(variant);
    P.simd_level = static_cast<int>(chosen);
    P.blocking = kp.bp;
    P.workspace_bytes = plan.total_bytes();
    P.workspace_cap = plan.cap_bytes;
    P.workspace_retiles = plan.retile_steps;
    static const model::MachineParams mp{};
    const model::ProblemShape shape{m, n, d, k};
    P.model_gflops = model::predicted_gflops(
        variant == Variant::kVar1 ? model::Method::kVar1 : model::Method::kVar6,
        shape, mp, kp.bp);
    // Machine ceilings for the roofline reporter: the profile JSON carries
    // everything tools/roofline_report.py needs in one file.
    P.peak_gflops = mp.peak_flops / 1e9;
    P.peak_gbs = model::peak_stream_gbs(mp);
    // Evaluated in *this* translation unit so a profiled core build reports
    // its counters even to consumers compiled without GSKNN_PROFILE.
    P.counters_enabled = P.counters_enabled || telemetry::kCountersEnabled;
    P.pmu_enabled = P.pmu_enabled || telemetry::pmu_available();
    rec.aggregate();
  }
  return outcome;
}

/// Cold path: plan, then compute with arena-packed reference panels.
template <typename T>
Status knn_kernel_impl(const PointTableT<T>& X, std::span<const int> qidx,
                       std::span<const int> ridx, NeighborTableT<T>& result,
                       const KnnConfig& cfg,
                       std::span<const int> result_rows) {
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  const int d = X.dim();
  const int k = result.k();
  // Full contract validation (docs/CONTRACT.md): throws StatusError before
  // any parallel region or allocation so malformed calls fail cleanly.
  check_knn_args(X, qidx, ridx, result, cfg, result_rows);
  if (m == 0 || n == 0) return Status::kOk;
  if (d == 0) return degenerate_d0(ridx.data(), n, m, result, cfg, result_rows);

  KernelPlanT<T> kp;
  const Status planned = plan_kernel<T>(m, n, d, k, cfg, kp);
  if (planned != Status::kOk) return planned;
  count_plan_events(kp.ws, kp.requested, m, kp.mk.mr);

  std::vector<unsigned char> rbad;
  bool any_bad_r = false;
  if (cfg.norm == Norm::kLInf) {
    scan_nonfinite(X, ridx.data(), n, rbad, any_bad_r);
  }
  ArenaRefPanels<T> rpanels;
  rpanels.X = &X;
  rpanels.ridx = ridx.data();
  rpanels.chosen = kp.chosen;
  rpanels.tnr = kp.mk.nr;
  rpanels.rbad = rbad.data();
  rpanels.any_bad = any_bad_r;
  return knn_kernel_compute<T>(X, qidx, ridx.data(), n, result, cfg,
                               result_rows, kp, rpanels);
}

/// Warm path: plan against the cache's pinned geometry, then compute with
/// cache-leased reference panels. The epoch handshake happens here, before
/// anything can touch the result table.
template <typename T>
Status packed_kernel_impl(PackedRefsT<T>& refs, std::span<const int> qidx,
                          NeighborTableT<T>& result, const KnnConfig& cfg,
                          std::span<const int> result_rows,
                          std::uint64_t expected_epoch) {
  if (!refs.built()) {
    throw StatusError(Status::kInvalidArgument,
                      "gsknn: PackedRefs::build() has not succeeded");
  }
  const PointTableT<T>& X = *refs.table();
  // One atomic (id list, epoch) capture: the whole call validates, plans and
  // pins against this generation. A concurrent insert()/erase() cannot swap
  // the list mid-call (the snapshot holds shared ownership) and cannot slip
  // a repacked panel in (every block pin below re-checks `epoch`).
  const typename PackedRefsT<T>::Snapshot snap = refs.snapshot();
  const std::span<const int> ridx(*snap.ids);
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  const int d = X.dim();
  const int k = result.k();
  check_knn_args(X, qidx, ridx, result, cfg, result_rows);
  if (expected_epoch != kEpochAny && expected_epoch != snap.epoch) {
    // No row saw any candidate of the caller's generation — flag them all,
    // exactly like a mid-flight pin rejection. Untouched rows of a fresh
    // table read vacuously complete, so skipping this would let a stale
    // reject masquerade as a finished (empty) result to anyone gating on
    // row_complete().
    for (int i = 0; i < m; ++i) {
      result.mark_row_incomplete(result_rows.empty()
                                     ? i
                                     : result_rows[static_cast<std::size_t>(i)]);
    }
    flightrec::record(flightrec::Kind::kStaleReject, -1,
                      static_cast<int>(Status::kStale), snap.epoch, m, n,
                      d, k);
    return Status::kStale;
  }
  if (m == 0 || n == 0) return Status::kOk;
  if (d == 0) return degenerate_d0(ridx.data(), n, m, result, cfg, result_rows);

  KernelPlanT<T> kp;
  const Status planned = plan_kernel_packed<T>(refs, m, n, d, k, cfg, kp);
  if (planned != Status::kOk) return planned;
  count_plan_events(kp.ws, kp.requested, m, kp.mk.mr);

  CachedRefPanels<T> rpanels;
  rpanels.cache = &refs;
  rpanels.nc = kp.bp.nc;
  rpanels.epoch = snap.epoch;  // kEpochAny resolves to the entry epoch
  return knn_kernel_compute<T>(X, qidx, ridx.data(), n, result, cfg,
                               result_rows, kp, rpanels);
}

/// The metrics axis both precisions' kernel entry points record under.
template <typename T>
constexpr metrics::EntryPoint kernel_entry_point() {
  return sizeof(T) == 8 ? metrics::EntryPoint::kKernelF64
                        : metrics::EntryPoint::kKernelF32;
}

/// Cold public entry: the entry bracket plus, for clean runs, one
/// model-drift sample comparing the measured wall time against the §2.6
/// prediction for the shape the call resolved to (Fig. 4 as a continuously
/// monitored calibration error).
template <typename T>
Status kernel_entry(const PointTableT<T>& X, std::span<const int> qidx,
                    std::span<const int> ridx, NeighborTableT<T>& result,
                    const KnnConfig& cfg, std::span<const int> result_rows) {
  const int m = static_cast<int>(qidx.size());
  const int n = static_cast<int>(ridx.size());
  const int d = X.dim();
  const int k = result.k();
  const auto drift = [&](std::uint64_t t1, std::uint64_t ns) {
    if (m <= 0 || n <= 0 || d <= 0 || k <= 0) return;
    const Variant v = resolve_variant(m, n, d, k, cfg);
    static const model::MachineParams mp{};
    const BlockingParams bp = cfg.blocking.value_or(
        default_blocking(cpu_features().best_level()));
    const model::ProblemShape shape{m, n, d, k};
    const double predicted = model::predicted_time(
        v == Variant::kVar1 ? model::Method::kVar1 : model::Method::kVar6,
        shape, mp, bp);
    metrics::record_drift_at(t1, sizeof(T) == 4, predicted,
                             static_cast<double>(ns) * 1e-9);
  };
  return record_entry_status(
      kernel_entry_point<T>(), m, n, d, k,
      [&] {
        return knn_kernel_impl<T>(X, qidx, ridx, result, cfg, result_rows);
      },
      drift);
}

/// Warm public entry: the same (status, latency, shape) sample under the
/// kernel entry-point axis — warm and cold traffic share one rate, which is
/// what a server dashboard wants. No model-drift sample: the §2.6 model
/// prices the pack phase the warm path skips, so a warm call would read as
/// spurious model optimism.
template <typename T>
Status packed_kernel_entry(PackedRefsT<T>& refs, std::span<const int> qidx,
                           NeighborTableT<T>& result, const KnnConfig& cfg,
                           std::span<const int> result_rows,
                           std::uint64_t expected_epoch) {
  return record_entry_status(
      kernel_entry_point<T>(), static_cast<int>(qidx.size()), refs.size(),
      refs.built() ? refs.table()->dim() : 0, result.k(), [&] {
        return packed_kernel_impl<T>(refs, qidx, result, cfg, result_rows,
                                     expected_epoch);
      });
}

}  // namespace
}  // namespace core

template <typename T>
WorkspacePlan plan_knn_workspace(const PackedRefsT<T>& refs, int m, int k,
                                 const KnnConfig& cfg) {
  if (!refs.built()) {
    throw StatusError(Status::kInvalidArgument,
                      "gsknn: PackedRefs::build() has not succeeded");
  }
  const int n = refs.size();
  const int d = refs.table()->dim();
  // The kernel returns before planning on these shapes: nothing to carve.
  if (m <= 0 || n <= 0 || d <= 0) return WorkspacePlan{};
  core::KernelPlanT<T> kp;
  const Status s = core::plan_kernel_packed<T>(refs, m, n, d, k, cfg, kp);
  if (s == Status::kUnsupported) {
    throw StatusError(s, "gsknn: the cache cannot serve this norm or blocking");
  }
  return kp.ws;
}

template WorkspacePlan plan_knn_workspace<double>(const PackedRefs&, int, int,
                                                  const KnnConfig&);
template WorkspacePlan plan_knn_workspace<float>(const PackedRefsF&, int, int,
                                                 const KnnConfig&);

Variant resolve_variant(int m, int n, int d, int k, const KnnConfig& cfg) {
  if (cfg.variant != Variant::kAuto) return cfg.variant;
  // The paper's §3 operating rule: Var#1 up to k = 512, Var#6 beyond. Our
  // Figure-5 reproduction measures the crossover at exactly that point, and
  // the §2.6 model — whose analytic threshold lands materially earlier (see
  // EXPERIMENTS.md) — keeps the last word only above the empirical floor,
  // where it can still prefer Var#1 (e.g. tiny n, where Var#6's extra
  // distance-matrix pass never amortizes).
  if (k <= 512) return Variant::kVar1;
  static const model::MachineParams mp{};
  const BlockingParams bp =
      cfg.blocking.value_or(default_blocking(cpu_features().best_level()));
  const model::ProblemShape s{m, n, d, k};
  return model::choose_variant(s, mp, bp) == model::Method::kVar1
             ? Variant::kVar1
             : Variant::kVar6;
}

void knn_kernel(const PointTable& X, std::span<const int> qidx,
                std::span<const int> ridx, NeighborTable& result,
                const KnnConfig& cfg, std::span<const int> result_rows) {
  core::throw_unless_ok(core::kernel_entry<double>(X, qidx, ridx, result, cfg,
                                                   result_rows),
                        "gsknn: kernel stopped: ");
}

void knn_kernel(const PointTableF& X, std::span<const int> qidx,
                std::span<const int> ridx, NeighborTableF& result,
                const KnnConfig& cfg, std::span<const int> result_rows) {
  core::throw_unless_ok(core::kernel_entry<float>(X, qidx, ridx, result, cfg,
                                                  result_rows),
                        "gsknn: kernel stopped: ");
}

Status knn_kernel_status(const PointTable& X, std::span<const int> qidx,
                         std::span<const int> ridx, NeighborTable& result,
                         const KnnConfig& cfg,
                         std::span<const int> result_rows) {
  return core::status_of([&] {
    return core::kernel_entry<double>(X, qidx, ridx, result, cfg, result_rows);
  });
}

Status knn_kernel_status(const PointTableF& X, std::span<const int> qidx,
                         std::span<const int> ridx, NeighborTableF& result,
                         const KnnConfig& cfg,
                         std::span<const int> result_rows) {
  return core::status_of([&] {
    return core::kernel_entry<float>(X, qidx, ridx, result, cfg, result_rows);
  });
}

void knn_kernel(PackedRefs& refs, std::span<const int> qidx,
                NeighborTable& result, const KnnConfig& cfg,
                std::span<const int> result_rows,
                std::uint64_t expected_epoch) {
  core::throw_unless_ok(
      core::packed_kernel_entry<double>(refs, qidx, result, cfg, result_rows,
                                        expected_epoch),
      "gsknn: packed kernel stopped: ");
}

void knn_kernel(PackedRefsF& refs, std::span<const int> qidx,
                NeighborTableF& result, const KnnConfig& cfg,
                std::span<const int> result_rows,
                std::uint64_t expected_epoch) {
  core::throw_unless_ok(
      core::packed_kernel_entry<float>(refs, qidx, result, cfg, result_rows,
                                       expected_epoch),
      "gsknn: packed kernel stopped: ");
}

Status knn_kernel_status(PackedRefs& refs, std::span<const int> qidx,
                         NeighborTable& result, const KnnConfig& cfg,
                         std::span<const int> result_rows,
                         std::uint64_t expected_epoch) {
  return core::status_of([&] {
    return core::packed_kernel_entry<double>(refs, qidx, result, cfg,
                                             result_rows, expected_epoch);
  });
}

Status knn_kernel_status(PackedRefsF& refs, std::span<const int> qidx,
                         NeighborTableF& result, const KnnConfig& cfg,
                         std::span<const int> result_rows,
                         std::uint64_t expected_epoch) {
  return core::status_of([&] {
    return core::packed_kernel_entry<float>(refs, qidx, result, cfg,
                                            result_rows, expected_epoch);
  });
}

}  // namespace gsknn
