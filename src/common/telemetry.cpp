// KernelProfile aggregation, JSON serialization and the Table-5-style
// pretty printer (see include/gsknn/common/telemetry.hpp).
#include "gsknn/common/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "gsknn/common/trace.hpp"

namespace gsknn::telemetry {

namespace {

const char* const kPhaseNames[kPhaseCount] = {
    "pack_q", "pack_r", "micro", "select", "merge", "collect", "sq2d",
};

const char* const kPhaseLabels[kPhaseCount] = {
    "pack-Qc", "pack-Rc", "micro-kernel", "selection",
    "merge",   "collect", "sq2d",
};

const char* const kCounterNames[kCounterCount] = {
    "candidates_evaluated", "heap_pushes",    "root_rejects",
    "tiles",                "bytes_packed_q", "bytes_packed_r",
};

void append_kv(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.9g", key, v);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu", key,
                static_cast<unsigned long long>(v));
  out += buf;
}

void append_kv(std::string& out, const char* key, int v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%d", key, v);
  out += buf;
}

void append_kv(std::string& out, const char* key, const char* v) {
  out += '"';
  out += key;
  out += "\":\"";
  out += v;
  out += '"';
}

}  // namespace

const char* phase_name(Phase p) {
  const int i = static_cast<int>(p);
  return (i >= 0 && i < kPhaseCount) ? kPhaseNames[i] : "?";
}

const char* counter_name(Counter c) {
  const int i = static_cast<int>(c);
  return (i >= 0 && i < kCounterCount) ? kCounterNames[i] : "?";
}

const char* simd_level_name(int level) {
  switch (static_cast<SimdLevel>(level)) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

double KernelProfile::phase_total() const {
  double s = 0.0;
  for (double t : phase_seconds) s += t;
  return s;
}

double KernelProfile::other_seconds() const {
  return std::max(0.0, wall_seconds - phase_total());
}

double KernelProfile::gflops() const {
  if (wall_seconds <= 0.0) return 0.0;
  return (2.0 * d + 3.0) * static_cast<double>(m) * static_cast<double>(n) /
         wall_seconds / 1e9;
}

double KernelProfile::selection_fraction() const {
  if (wall_seconds <= 0.0) return 0.0;
  return phase(Phase::kSelect) / wall_seconds;
}

double KernelProfile::pack_bandwidth_gbs() const {
  const double t = phase(Phase::kPackQ) + phase(Phase::kPackR);
  if (t <= 0.0) return 0.0;
  const double bytes = static_cast<double>(counter(Counter::kBytesPackedQ) +
                                           counter(Counter::kBytesPackedR));
  return bytes / t / 1e9;
}

std::uint64_t KernelProfile::pmu_total(PmuEvent e) const {
  std::uint64_t s = 0;
  for (int p = 0; p < kPhaseCount; ++p) {
    s += phase_pmu[p][static_cast<int>(e)];
  }
  return s;
}

namespace {
double safe_ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0) {
  return den > 0 ? scale * static_cast<double>(num) / static_cast<double>(den)
                 : 0.0;
}
}  // namespace

double KernelProfile::phase_ipc(Phase p) const {
  return safe_ratio(pmu(p, PmuEvent::kInstructions), pmu(p, PmuEvent::kCycles));
}

double KernelProfile::ipc() const {
  return safe_ratio(pmu_total(PmuEvent::kInstructions),
                    pmu_total(PmuEvent::kCycles));
}

double KernelProfile::phase_mpki(Phase p, PmuEvent miss_event) const {
  return safe_ratio(pmu(p, miss_event), pmu(p, PmuEvent::kInstructions),
                    1000.0);
}

double KernelProfile::mpki(PmuEvent miss_event) const {
  return safe_ratio(pmu_total(miss_event), pmu_total(PmuEvent::kInstructions),
                    1000.0);
}

double KernelProfile::phase_bytes_per_cycle(Phase p) const {
  return safe_ratio(pmu(p, PmuEvent::kLlcMisses) * 64,
                    pmu(p, PmuEvent::kCycles));
}

void KernelProfile::merge(const KernelProfile& other) {
  if (invocations == 0) {
    // Adopt the first real invocation's metadata wholesale, then restore the
    // accumulated measurements below.
    const KernelProfile self = *this;
    *this = other;
    wall_seconds = self.wall_seconds;
    std::memcpy(phase_seconds, self.phase_seconds, sizeof(phase_seconds));
    std::memcpy(phase_thread_seconds, self.phase_thread_seconds,
                sizeof(phase_thread_seconds));
    std::memcpy(counters, self.counters, sizeof(counters));
    std::memcpy(phase_pmu, self.phase_pmu, sizeof(phase_pmu));
    invocations = self.invocations;
  }
  wall_seconds += other.wall_seconds;
  for (int i = 0; i < kPhaseCount; ++i) {
    phase_seconds[i] += other.phase_seconds[i];
    phase_thread_seconds[i] += other.phase_thread_seconds[i];
  }
  for (int i = 0; i < kCounterCount; ++i) counters[i] += other.counters[i];
  for (int p = 0; p < kPhaseCount; ++p) {
    for (int e = 0; e < kPmuEventCount; ++e) {
      phase_pmu[p][e] += other.phase_pmu[p][e];
    }
  }
  counters_enabled = counters_enabled || other.counters_enabled;
  pmu_enabled = pmu_enabled || other.pmu_enabled;
  invocations += other.invocations;
}

std::string KernelProfile::to_json() const {
  std::string j;
  j.reserve(2048);
  j += '{';
  append_kv(j, "algorithm", algorithm);
  j += ',';
  append_kv(j, "precision", precision);
  j += ',';
  append_kv(j, "m", m);
  j += ',';
  append_kv(j, "n", n);
  j += ',';
  append_kv(j, "d", d);
  j += ',';
  append_kv(j, "k", k);
  j += ',';
  append_kv(j, "threads", threads);
  j += ',';
  append_kv(j, "variant", variant);
  j += ',';
  append_kv(j, "simd", simd_level_name(simd_level));
  j += ",\"blocking\":{";
  append_kv(j, "mr", blocking.mr);
  j += ',';
  append_kv(j, "nr", blocking.nr);
  j += ',';
  append_kv(j, "dc", blocking.dc);
  j += ',';
  append_kv(j, "mc", blocking.mc);
  j += ',';
  append_kv(j, "nc", blocking.nc);
  j += "},\"workspace\":{";
  append_kv(j, "bytes", static_cast<std::uint64_t>(workspace_bytes));
  j += ',';
  append_kv(j, "cap", static_cast<std::uint64_t>(workspace_cap));
  j += ',';
  append_kv(j, "retiles", workspace_retiles);
  j += "},";
  append_kv(j, "invocations", invocations);
  j += ',';
  append_kv(j, "wall_seconds", wall_seconds);
  j += ",\"phases\":{";
  for (int i = 0; i < kPhaseCount; ++i) {
    if (i > 0) j += ',';
    append_kv(j, kPhaseNames[i], phase_seconds[i]);
  }
  j += "},";
  append_kv(j, "phase_total", phase_total());
  j += ',';
  append_kv(j, "other_seconds", other_seconds());
  j += ",\"phase_thread_seconds\":{";
  for (int i = 0; i < kPhaseCount; ++i) {
    if (i > 0) j += ',';
    append_kv(j, kPhaseNames[i], phase_thread_seconds[i]);
  }
  j += "},";
  j += "\"counters_enabled\":";
  j += counters_enabled ? "true" : "false";
  j += ",\"counters\":{";
  for (int i = 0; i < kCounterCount; ++i) {
    if (i > 0) j += ',';
    append_kv(j, kCounterNames[i], counters[i]);
  }
  j += "},\"pmu\":{\"enabled\":";
  j += pmu_enabled ? "true" : "false";
  j += ",\"phases\":{";
  for (int p = 0; p < kPhaseCount; ++p) {
    if (p > 0) j += ',';
    j += '"';
    j += kPhaseNames[p];
    j += "\":{";
    for (int e = 0; e < kPmuEventCount; ++e) {
      if (e > 0) j += ',';
      append_kv(j, pmu_event_name(static_cast<PmuEvent>(e)), phase_pmu[p][e]);
    }
    j += '}';
  }
  j += "}},\"derived\":{";
  append_kv(j, "gflops", gflops());
  j += ',';
  append_kv(j, "model_gflops", model_gflops);
  j += ',';
  append_kv(j, "peak_gflops", peak_gflops);
  j += ',';
  append_kv(j, "peak_gbs", peak_gbs);
  j += ',';
  append_kv(j, "selection_fraction", selection_fraction());
  j += ',';
  append_kv(j, "pack_gbs", pack_bandwidth_gbs());
  j += ',';
  append_kv(j, "ipc", ipc());
  j += ',';
  append_kv(j, "l1_mpki", mpki(PmuEvent::kL1dMisses));
  j += ',';
  append_kv(j, "llc_mpki", mpki(PmuEvent::kLlcMisses));
  j += "}}";
  return j;
}

std::string KernelProfile::format_table() const {
  char line[192];
  std::string out;
  out.reserve(1024);
  std::snprintf(line, sizeof(line),
                "profile: %s %s m=%d n=%d d=%d k=%d threads=%d variant=%d "
                "simd=%s blocking=(%d,%d,%d,%d,%d) invocations=%llu\n",
                algorithm, precision, m, n, d, k, threads, variant,
                simd_level_name(simd_level), blocking.mr, blocking.nr,
                blocking.dc, blocking.mc, blocking.nc,
                static_cast<unsigned long long>(invocations));
  out += line;
  if (pmu_enabled) {
    std::snprintf(line, sizeof(line),
                  "  %-14s %12s %8s %14s %6s %8s %8s %6s\n", "phase",
                  "seconds", "% wall", "thread-secs", "ipc", "l1-mpki",
                  "llc-mpki", "B/cyc");
  } else {
    std::snprintf(line, sizeof(line), "  %-14s %12s %8s %14s\n", "phase",
                  "seconds", "% wall", "thread-secs");
  }
  out += line;
  const double wall = wall_seconds > 0.0 ? wall_seconds : 1.0;
  for (int i = 0; i < kPhaseCount; ++i) {
    if (phase_seconds[i] == 0.0 && phase_thread_seconds[i] == 0.0) continue;
    const auto ph = static_cast<Phase>(i);
    if (pmu_enabled) {
      std::snprintf(line, sizeof(line),
                    "  %-14s %12.6f %7.1f%% %14.6f %6.2f %8.2f %8.2f %6.2f\n",
                    kPhaseLabels[i], phase_seconds[i],
                    100.0 * phase_seconds[i] / wall, phase_thread_seconds[i],
                    phase_ipc(ph), phase_mpki(ph, PmuEvent::kL1dMisses),
                    phase_mpki(ph, PmuEvent::kLlcMisses),
                    phase_bytes_per_cycle(ph));
    } else {
      std::snprintf(line, sizeof(line), "  %-14s %12.6f %7.1f%% %14.6f\n",
                    kPhaseLabels[i], phase_seconds[i],
                    100.0 * phase_seconds[i] / wall, phase_thread_seconds[i]);
    }
    out += line;
  }
  std::snprintf(line, sizeof(line), "  %-14s %12.6f %7.1f%%\n", "(other)",
                other_seconds(), 100.0 * other_seconds() / wall);
  out += line;
  std::snprintf(line, sizeof(line), "  %-14s %12.6f %7.1f%%\n", "total (wall)",
                wall_seconds, 100.0);
  out += line;
  std::snprintf(line, sizeof(line),
                "  gflops=%.2f model_gflops=%.2f selection=%.1f%%\n", gflops(),
                model_gflops, 100.0 * selection_fraction());
  out += line;
  if (counters_enabled) {
    std::snprintf(
        line, sizeof(line),
        "  candidates=%llu heap_pushes=%llu root_rejects=%llu tiles=%llu\n",
        static_cast<unsigned long long>(counter(Counter::kCandidates)),
        static_cast<unsigned long long>(counter(Counter::kHeapPushes)),
        static_cast<unsigned long long>(counter(Counter::kRootRejects)),
        static_cast<unsigned long long>(counter(Counter::kTiles)));
    out += line;
    std::snprintf(
        line, sizeof(line),
        "  packed_q=%llu B packed_r=%llu B pack_bw=%.2f GB/s\n",
        static_cast<unsigned long long>(counter(Counter::kBytesPackedQ)),
        static_cast<unsigned long long>(counter(Counter::kBytesPackedR)),
        pack_bandwidth_gbs());
    out += line;
  }
  return out;
}

Recorder::Recorder(KernelProfile* sink, int threads)
    : sink_(sink), threads_(threads < 1 ? 1 : threads) {
  if (sink_ != nullptr) {
    slots_ = new ThreadCounters[static_cast<std::size_t>(threads_)]();
    start_ = std::chrono::steady_clock::now();
  }
}

Recorder::~Recorder() { delete[] slots_; }

void Recorder::aggregate() {
  if (sink_ == nullptr) return;
  for (int p = 0; p < kPhaseCount; ++p) {
    double mx = 0.0, sum = 0.0;
    for (int t = 0; t < threads_; ++t) {
      mx = std::max(mx, slots_[t].phase[p]);
      sum += slots_[t].phase[p];
    }
    sink_->phase_seconds[p] += mx;
    sink_->phase_thread_seconds[p] += sum;
  }
  for (int c = 0; c < kCounterCount; ++c) {
    std::uint64_t sum = 0;
    for (int t = 0; t < threads_; ++t) sum += slots_[t].counter[c];
    sink_->counters[c] += sum;
  }
  // PMU counts are extensive quantities (work done), so per-phase totals
  // sum across threads; IPC and miss rates derived from the sums are the
  // whole-phase aggregates.
  for (int p = 0; p < kPhaseCount; ++p) {
    for (int e = 0; e < kPmuEventCount; ++e) {
      std::uint64_t sum = 0;
      for (int t = 0; t < threads_; ++t) sum += slots_[t].pmu[p][e];
      sink_->phase_pmu[p][e] += sum;
    }
  }
  sink_->wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  sink_->invocations += 1;
}

void PhaseScope::open() {
  open_ = true;
  if (slot_ != nullptr) {
    t0_ = std::chrono::steady_clock::now();
    pmu_ = pmu_available() && PmuGroup::this_thread().read(pmu0_);
  }
  if (trace_ != nullptr) ts0_ = trace_now();
}

void PhaseScope::finish() {
  open_ = false;
  if (trace_ != nullptr) trace_->record(phase_, ts0_, trace_now(), a_, b_);
  if (slot_ == nullptr) return;
  PmuCounts delta;
  PmuCounts now;
  if (pmu_ && PmuGroup::this_thread().read(now)) {
    delta = now.delta_since(pmu0_);
    slot_->add_pmu(phase_, delta.delta_since(carved_pmu_));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  slot_->add_phase(phase_, secs - carved_secs_);
  if (parent_ != nullptr) {
    parent_->carved_secs_ += secs;
    parent_->carved_pmu_.accumulate(delta);
  }
}

}  // namespace gsknn::telemetry
