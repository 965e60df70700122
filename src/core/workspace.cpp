// Workspace planning for the six-loop driver (gsknn/core/workspace.hpp).
//
// Everything the driver carves from its arenas is computed here first, chunk
// by chunk, with the same rounding WorkspaceArena::alloc applies — the plan
// is byte-exact, not an estimate. The kernel/blocking resolution helpers the
// driver shares live here too, so the planner and the driver cannot drift.
#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "gsknn/common/workspace.hpp"
#include "gsknn/core/workspace.hpp"
#include "gsknn/select/batch_select.hpp"
#include "micro.hpp"

namespace gsknn {
namespace core {

bool defer_enabled() {
  static const bool on = [] {
    const char* e = std::getenv("GSKNN_DEFER");
    return e == nullptr || e[0] != '0';
  }();
  return on;
}

int batch_select_k(int k, const KnnConfig& cfg) {
  return (k >= kBatchSelectMinK && !cfg.dedup) ? k : 0;
}

template <typename T>
void resolve_kernel_and_blocking(SimdLevel level, const KnnConfig& cfg,
                                 MicroKernelT<T>& mk, BlockingParams& bp,
                                 SimdLevel& chosen) {
  mk = select_micro_t<T>(level, cfg.norm);
  chosen = level;
  if (cfg.blocking.has_value()) {
    bp = *cfg.blocking;
    if (!bp.valid()) {
      throw StatusError(Status::kBadConfig,
                        "gsknn: invalid blocking parameters");
    }
    if (bp.mr != mk.mr || bp.nr != mk.nr) {
      for (SimdLevel lv : {SimdLevel::kAvx2, SimdLevel::kScalar}) {
        if (lv > level) continue;
        const MicroKernelT<T> alt = select_micro_t<T>(lv, cfg.norm);
        if (alt.fn != nullptr && alt.mr == bp.mr && alt.nr == bp.nr) {
          mk = alt;
          chosen = lv;
          return;
        }
      }
      throw StatusError(
          Status::kBadConfig,
          "gsknn: blocking mr/nr do not match any available micro-kernel");
    }
  } else {
    bp = derive_blocking(mk.mr, mk.nr, sizeof(T));
  }
}

template void resolve_kernel_and_blocking<double>(SimdLevel, const KnnConfig&,
                                                  MicroKernelT<double>&,
                                                  BlockingParams&, SimdLevel&);
template void resolve_kernel_and_blocking<float>(SimdLevel, const KnnConfig&,
                                                 MicroKernelT<float>&,
                                                 BlockingParams&, SimdLevel&);

int balanced_mc(int m, int mc, int mr, int threads) {
  assert(m >= 0 && mc > 0 && mr > 0 && threads >= 1);
  // m == 0 has no 4th loop to balance (and would round the block target to
  // zero below).
  if (threads <= 1 || m == 0) return mc;
  const int blocks = static_cast<int>(ceil_div(m, mc));
  const int target = static_cast<int>(round_up(blocks, threads));
  int out = static_cast<int>(
      round_up(ceil_div(static_cast<std::size_t>(m),
                        static_cast<std::size_t>(target)),
               static_cast<std::size_t>(mr)));
  return out < mr ? mr : out;
}

namespace {

/// Mirror of the driver's buffer carving for one (variant, blocking) choice.
/// Every line corresponds to an AlignedBuffer/arena chunk in driver.cpp; the
/// chunk_bytes rounding matches WorkspaceArena::alloc exactly.
void compute_footprint(int m, int n, int d, bool needs_norms,
                       bool defer_possible, int batch_k, std::size_t elem,
                       int tmr, int tnr, bool packed_refs,
                       WorkspacePlan& plan) {
  const BlockingParams& bp = plan.blocking;
  const auto cb = [](std::size_t count, std::size_t es) {
    return WorkspaceArena::chunk_bytes(count, es);
  };

  const std::size_t db_max =
      static_cast<std::size_t>(std::min(d, bp.dc));
  const std::size_t nbpad_max = round_up(
      static_cast<std::size_t>(std::min(n, bp.nc)),
      static_cast<std::size_t>(tnr));

  // Shared: packed Rc panel (+ reference norms at the last depth block).
  // A warm packed-refs call reads both straight out of the cache's resident
  // blocks (budgeted by PackedRefs::Options::budget_bytes), so they leave
  // this call's footprint entirely.
  std::size_t shared = 0;
  if (!packed_refs) {
    shared = cb(nbpad_max * db_max, elem);
    if (needs_norms) shared += cb(nbpad_max, elem);
  }

  // Shared: distance buffer. Var#1 needs it only to carry the rank-dc
  // accumulation across depth blocks (d > dc); Var#2/3/5 hold the current
  // nc-wide panel; Var#6 the full m × n matrix. Layout mirrors the driver:
  // Var#1 column-major tiles, the rest query-major, both with one extra
  // cache line on the leading dimension.
  const bool needs_cbuf = (plan.variant != Variant::kVar1) || (d > bp.dc);
  if (needs_cbuf) {
    const int width = (plan.variant == Variant::kVar6) ? n : std::min(n, bp.nc);
    const std::size_t wpad = round_up(static_cast<std::size_t>(width),
                                      static_cast<std::size_t>(tnr));
    const std::size_t mpad = round_up(static_cast<std::size_t>(m),
                                      static_cast<std::size_t>(tmr));
    const bool c_colmajor = (plan.variant == Variant::kVar1);
    const std::size_t ld = (c_colmajor ? mpad : wpad) + 64 / elem;
    shared += cb(ld * (c_colmajor ? wpad : mpad), elem);
  }

  // Per thread: packed Qc panel (+ query norms) for the largest mc-block,
  // plus the Var#1 deferred-selection candidate buffers when the call could
  // take the deferred path (k >= kDeferMinK; GSKNN_DEFER on).
  const std::size_t mbpad_max = round_up(
      static_cast<std::size_t>(std::min(m, bp.mc)),
      static_cast<std::size_t>(tmr));
  std::size_t per_thread = cb(mbpad_max * db_max, elem);
  if (needs_norms) per_thread += cb(mbpad_max, elem);
  if (defer_possible && plan.variant == Variant::kVar1) {
    per_thread += cb(mbpad_max * kCandBufLen, elem);         // cand_d
    per_thread += cb(mbpad_max * kCandBufLen, sizeof(int));  // cand_id
    per_thread += cb(mbpad_max, sizeof(int));                // cand_cnt
  }

  // Per thread: the Var#5/6 selection regions run after the 4th loop and
  // rewind the same arena for heap::batch_select's scratch (distances and
  // ids, one row's candidates plus k each), so the arena needs the larger
  // of the two.
  plan.batch_select = batch_k > 0 && (plan.variant == Variant::kVar5 ||
                                      plan.variant == Variant::kVar6);
  if (plan.batch_select) {
    const int len = (plan.variant == Variant::kVar6) ? n : std::min(n, bp.nc);
    const std::size_t sl = heap::batch_scratch_len(len, batch_k);
    per_thread = std::max(per_thread, cb(sl, elem) + cb(sl, sizeof(int)));
  }

  plan.shared_bytes = shared;
  plan.per_thread_bytes = per_thread;
}

}  // namespace

WorkspacePlan plan_workspace(int m, int n, int d, Variant variant,
                             const BlockingParams& bp, int tmr, int tnr,
                             int threads, bool needs_norms,
                             bool defer_possible, int batch_k,
                             std::size_t elem, std::size_t cap_bytes,
                             bool packed_refs) {
  assert(variant != Variant::kAuto && "plan_workspace wants a concrete variant");
  WorkspacePlan plan;
  plan.variant = variant;
  plan.blocking = bp;
  plan.threads = threads;
  plan.cap_bytes = cap_bytes;
  if (m <= 0 || n <= 0 || d <= 0) return plan;  // driver returns before packing

  compute_footprint(m, n, d, needs_norms, defer_possible, batch_k, elem, tmr,
                    tnr, packed_refs, plan);
  if (cap_bytes == 0) return plan;

  // Shrinking dc below d ADDS the rank-dc carry buffer on the Var#1 path
  // (and leaves a larger batch scratch as it was), so the dc step is taken
  // only when it strictly shrinks the total.
  WorkspacePlan trial;
  const auto dc_step_helps = [&] {
    if (packed_refs || plan.blocking.dc <= kWorkspaceDcFloor) return false;
    trial = plan;
    trial.blocking.dc = std::max(kWorkspaceDcFloor, plan.blocking.dc / 2);
    compute_footprint(m, n, d, needs_norms, defer_possible, batch_k, elem,
                      tmr, tnr, packed_refs, trial);
    return trial.total_bytes() < plan.total_bytes();
  };
  // Dropping the batch scratch alone brings the footprint under the cap.
  const auto unbatched_fits = [&] {
    if (!plan.batch_select) return false;
    trial = plan;
    compute_footprint(m, n, d, needs_norms, defer_possible, /*batch_k=*/0,
                      elem, tmr, tnr, packed_refs, trial);
    return trial.total_bytes() <= cap_bytes;
  };

  // Degradation ladder (see the header comment): every step is bitwise-
  // result-preserving, so the only cost of a cap is extra packing passes
  // or per-candidate selection. Warm packed-refs calls only take the steps
  // that leave the cache's block geometry (nc, dc) alone — the kernel must
  // walk the cached blocks as they were packed.
  while (plan.total_bytes() > cap_bytes) {
    if (plan.variant == Variant::kVar6) {
      // The full m × n distance matrix cannot be retiled away; Var#5 is the
      // paper's bounded-memory formulation of the same selection.
      plan.variant = Variant::kVar5;
    } else if (unbatched_fits()) {
      batch_k = 0;  // per-candidate selection needs no scratch
    } else if (!packed_refs && plan.blocking.nc > tnr) {
      plan.blocking.nc = std::max(
          tnr, static_cast<int>(round_up(
                   static_cast<std::size_t>(plan.blocking.nc / 2),
                   static_cast<std::size_t>(tnr))));
    } else if (plan.blocking.mc > tmr) {
      plan.blocking.mc = std::max(
          tmr, static_cast<int>(round_up(
                   static_cast<std::size_t>(plan.blocking.mc / 2),
                   static_cast<std::size_t>(tmr))));
    } else if (dc_step_helps()) {
      plan.blocking = trial.blocking;
    } else if (plan.batch_select) {
      batch_k = 0;  // at the blocking floors: give the scratch up as well
    } else {
      break;  // at every floor and still over the cap
    }
    ++plan.retile_steps;
    compute_footprint(m, n, d, needs_norms, defer_possible, batch_k, elem,
                      tmr, tnr, packed_refs, plan);
  }
  plan.fits = plan.total_bytes() <= cap_bytes;
  return plan;
}

}  // namespace core

}  // namespace gsknn
