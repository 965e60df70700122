// Internal helpers bracketing public entry points with the aggregate
// metrics layer (gsknn/common/metrics.hpp) and the flight recorder
// (gsknn/common/flightrec.hpp): one steady-clock pair per call, the
// resulting Status recorded even when the entry point reports it by
// throwing, plus a call_begin/call_end event pair in the recorder. Every
// public entry point runs through record_entry_status — the kernels,
// baselines, batch, parallel_refs and the tree solvers — and its `_status`
// and throwing faces through status_of / throw_unless_ok. Also the two
// call-level decisions every driver shares: the stop poll (poll_stop) and
// the §2.6 price of a call (predicted_call_seconds). Not part of the public
// API.
#pragma once

#include <cstdint>
#include <new>
#include <string>
#include <utility>

#include "gsknn/common/fault.hpp"
#include "gsknn/common/flightrec.hpp"
#include "gsknn/common/metrics.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/model/perf_model.hpp"

namespace gsknn::core {

/// True when a call has anything to poll for: a cancel token, a deadline,
/// or armed fault injection. Drivers skip poll_stop entirely otherwise.
inline bool stop_governed(const KnnConfig& cfg) {
  return cfg.cancel != nullptr || cfg.deadline.has_value() || fault::active();
}

/// The one stop poll, run at block, task and leaf boundaries. Precedence:
/// an injected cancel (only while fault injection is armed), then the
/// cancel token, then the deadline. kOk when nothing fired.
inline Status poll_stop(const KnnConfig& cfg) {
  if (fault::active() && fault::inject_cancel()) return Status::kCancelled;
  if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
    return Status::kCancelled;
  }
  if (cfg.deadline.has_value() && deadline_expired(*cfg.deadline)) {
    return Status::kDeadlineExceeded;
  }
  return Status::kOk;
}

/// The §2.6 model's runtime estimate for one m×n×d×k call under `cfg`
/// (variant) and `bp` (blocking): Var#1 is priced as Var#1, every other
/// variant as Var#6.
inline double predicted_call_seconds(int m, int n, int d, int k,
                                     const KnnConfig& cfg,
                                     const BlockingParams& bp) {
  static const model::MachineParams mp{};
  const Variant v = resolve_variant(m, n, d, k, cfg);
  return model::predicted_time(
      v == Variant::kVar1 ? model::Method::kVar1 : model::Method::kVar6,
      model::ProblemShape{m, n, d, k}, mp, bp);
}

/// One finished-call sample into both sinks; returns the end-of-call
/// now_ns() so an on-success hook can place its own sample in the same
/// window slot without a second clock read.
inline std::uint64_t record_entry_end(bool met, bool rec,
                                      metrics::EntryPoint ep, int status,
                                      std::uint64_t t0, int m, int n, int d,
                                      int k) {
  const std::uint64_t t1 = metrics::now_ns();
  if (met) metrics::record_call_at(t1, ep, status, t1 - t0, m, n, d, k);
  if (rec) {
    flightrec::record(flightrec::Kind::kCallEnd, static_cast<int>(ep),
                      status, t1 - t0, m, n, d, k);
  }
  return t1;
}

/// The Status an exception in flight maps to (call from a catch block):
/// its own for StatusError, kResourceExhausted for bad_alloc, kInternal for
/// anything else — the same mapping the C boundary applies.
inline Status in_flight_status() {
  try {
    throw;
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::kResourceExhausted;
  } catch (...) {
    return Status::kInternal;
  }
}

/// No on-success hook.
struct NoEntryHook {
  void operator()(std::uint64_t, std::uint64_t) const {}
};

/// Run a Status-returning entry-point body under metrics and the flight
/// recorder. The returned Status is recorded; a body that throws anyway
/// (validation paths) is recorded with its mapped status and the exception
/// propagated. `on_ok(t1, ns)` runs after a clean (kOk) call while metrics
/// are armed — the cold kernel's model-drift sample.
template <typename Fn, typename OnOk = NoEntryHook>
Status record_entry_status(metrics::EntryPoint ep, int m, int n, int d,
                           int k, Fn&& fn, OnOk&& on_ok = {}) {
  const bool met = metrics::enabled();
  const bool rec = flightrec::enabled();
  if (!met && !rec) return std::forward<Fn>(fn)();
  const std::uint64_t t0 = metrics::now_ns();
  if (rec) {
    flightrec::record(flightrec::Kind::kCallBegin, static_cast<int>(ep), 0,
                      0, m, n, d, k);
  }
  Status s = Status::kInternal;
  try {
    s = std::forward<Fn>(fn)();
  } catch (...) {
    record_entry_end(met, rec, ep, static_cast<int>(in_flight_status()), t0,
                     m, n, d, k);
    throw;
  }
  const std::uint64_t t1 =
      record_entry_end(met, rec, ep, static_cast<int>(s), t0, m, n, d, k);
  if (met && s == Status::kOk) on_ok(t1, t1 - t0);
  return s;
}

/// Throwing-body form: a body that returns completed with kOk.
template <typename Fn>
void record_entry(metrics::EntryPoint ep, int m, int n, int d, int k,
                  Fn&& fn) {
  record_entry_status(ep, m, n, d, k, [&] {
    std::forward<Fn>(fn)();
    return Status::kOk;
  });
}

/// The `_status` face of an entry point: run `fn` and map a StatusError or
/// bad_alloc it throws to its Status instead.
template <typename Fn>
Status status_of(Fn&& fn) {
  try {
    return std::forward<Fn>(fn)();
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::kResourceExhausted;
  }
}

/// The throwing face: a non-OK Status becomes a StatusError whose message is
/// `what` followed by the status name.
inline void throw_unless_ok(Status s, const char* what) {
  if (s != Status::kOk) {
    throw StatusError(s, std::string(what) + status_name(s));
  }
}

}  // namespace gsknn::core
