// Aggregate metrics registry (see include/gsknn/common/metrics.hpp).
#include "gsknn/common/metrics.hpp"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace gsknn::metrics {

namespace {

const char* const kEntryPointNames[kEntryPointCount] = {
    "kernel_f64", "kernel_f32",  "parallel_refs", "batch",
    "gemm_baseline", "single_loop", "rkd_forest",  "lsh",
    "serve_interactive", "serve_bulk",
};

// Mirrors gsknn::status_name() (src/core/validate.cpp); the parity is
// pinned by tests/common/test_metrics.cpp.
const char* const kStatusLabels[kStatusCount] = {
    "ok",          "invalid_argument",   "bad_index",
    "bad_config",  "non_finite",         "unsupported",
    "internal",    "resource_exhausted", "deadline_exceeded",
    "cancelled",   "stale",
};

const char* const kCounterNames[kCounterCount] = {
    "workspace_retiled_calls", "workspace_retile_steps", "variant_demotions",
    "trace_spans_dropped",     "pmu_multiplexed_reads",  "pack_hits",
    "pack_misses",             "pack_evictions",         "cache_bytes",
    "serve_enqueued",          "serve_fused_calls",      "serve_fused_queries",
    "serve_cancelled",         "serve_expired",          "serve_shed_predictive",
    "serve_doomed_evicted",    "serve_watchdog_fires",   "serve_breaker_open",
    "micro_rows_live",         "micro_rows_padded",
};

// Serving health gauge (metrics.hpp set_serve_health). One relaxed word:
// the serving runtime stores transitions, scrapes read it into snapshots.
std::atomic<int> g_serve_health{0};

const char* const kShapeDims[4] = {"m", "n", "d", "k"};

/// One thread's accumulator. All cells are relaxed atomics so concurrent
/// snapshot()/reset() reads and writes are defined; the owning thread
/// updates them with plain load+add+store (bump below), never a
/// lock-prefixed RMW.
struct alignas(64) Shard {
  std::atomic<std::uint64_t> calls[kEntryPointCount][kStatusCount];
  std::atomic<std::uint64_t> latency[kEntryPointCount][kHistBuckets];
  std::atomic<std::uint64_t> latency_sum_ns[kEntryPointCount];
  std::atomic<std::uint64_t> shape[4][kHistBuckets];
  std::atomic<std::uint64_t> shape_sum[4];
  std::atomic<std::uint64_t> drift[2][kHistBuckets];
  std::atomic<std::int64_t> drift_sum_millilog2[2];
  std::atomic<std::uint64_t> counters[kCounterCount];
  // Rolling-window ring (see metrics.hpp kWindowBuckets). win_epoch[i] is
  // the absolute wall second slot i currently holds; the slot's arrays are
  // re-zeroed by the recording thread when its second moves on.
  std::atomic<std::uint64_t> win_epoch[kWindowBuckets];
  std::atomic<std::uint64_t> win_status[kWindowBuckets][kStatusCount];
  std::atomic<std::uint64_t> win_latency[kWindowBuckets][kHistBuckets];
  std::atomic<std::uint64_t> win_latency_sum_ns[kWindowBuckets];
  std::atomic<std::uint64_t> win_drift_count[kWindowBuckets];
  std::atomic<std::int64_t> win_drift_sum_millilog2[kWindowBuckets];
};

// Fixed pool: ~8 KB per shard, claimed one per recording thread. Threads
// beyond the pool share the extra overflow shard (index kNumShards) using
// real fetch_add, so nothing is lost — only those rare threads pay for
// contended increments.
constexpr int kNumShards = 32;
Shard g_shards[kNumShards + 1];
std::atomic<int> g_next_shard{0};

struct ShardRef {
  Shard* shard;
  bool shared;  ///< true for the overflow shard: use fetch_add
};

ShardRef claim_shard() {
  const int i = g_next_shard.fetch_add(1, std::memory_order_relaxed);
  if (i < kNumShards) return {&g_shards[i], false};
  return {&g_shards[kNumShards], true};
}

ShardRef& my_shard() {
  thread_local ShardRef ref = claim_shard();
  return ref;
}

inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t v,
                 bool shared) {
  if (shared) {
    cell.fetch_add(v, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
  }
}

inline void bump_signed(std::atomic<std::int64_t>& cell, std::int64_t v,
                        bool shared) {
  if (shared) {
    cell.fetch_add(v, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
  }
}

bool initial_enabled() {
  const char* e = std::getenv("GSKNN_METRICS");
  return e == nullptr || e[0] != '0';
}

std::atomic<bool> g_enabled{initial_enabled()};

void zero_window_slot(Shard& s, int slot) {
  for (int st = 0; st < kStatusCount; ++st) {
    s.win_status[slot][st].store(0, std::memory_order_relaxed);
  }
  for (int b = 0; b < kHistBuckets; ++b) {
    s.win_latency[slot][b].store(0, std::memory_order_relaxed);
  }
  s.win_latency_sum_ns[slot].store(0, std::memory_order_relaxed);
  s.win_drift_count[slot].store(0, std::memory_order_relaxed);
  s.win_drift_sum_millilog2[slot].store(0, std::memory_order_relaxed);
}

/// Make `slot` of shard `s` hold wall-second `sec`, re-zeroing it if it
/// held an older second. Owned shards do this with plain stores. On the
/// shared overflow shard a CAS elects one zeroing thread; a concurrent
/// bump may land while the winner zeroes — an acceptable (counted-sample)
/// loss on an already contended fallback path, same scrape-race contract
/// as snapshot()/reset().
inline void rotate_window(Shard& s, int slot, std::uint64_t sec,
                          bool shared) {
  std::uint64_t held = s.win_epoch[slot].load(std::memory_order_relaxed);
  if (held == sec) return;
  if (held > sec) return;  // another thread already advanced past us
  if (shared) {
    if (!s.win_epoch[slot].compare_exchange_strong(
            held, sec, std::memory_order_relaxed)) {
      return;
    }
    zero_window_slot(s, slot);
  } else {
    zero_window_slot(s, slot);
    s.win_epoch[slot].store(sec, std::memory_order_relaxed);
  }
}

// ---- tiny JSON/text builders (snprintf into std::string, the telemetry
// serializer idiom — no allocation surprises, no iostreams) ----------------

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

void append_bucket_array(std::string& out, const std::uint64_t* b) {
  out += '[';
  for (int i = 0; i < kHistBuckets; ++i) {
    append_fmt(out, "%s%llu", i == 0 ? "" : ",",
               static_cast<unsigned long long>(b[i]));
  }
  out += ']';
}

std::uint64_t sum_buckets(const std::uint64_t* b) {
  std::uint64_t total = 0;
  for (int i = 0; i < kHistBuckets; ++i) total += b[i];
  return total;
}

/// Emit one Prometheus histogram (TYPE line, cumulative buckets, +Inf,
/// _sum, _count). `le_of(i)` renders the bucket-i upper edge.
template <typename LeFn>
void prom_histogram(std::string& out, const char* family, const char* label,
                    const char* label_value, const std::uint64_t* buckets,
                    double sum, LeFn&& le_of, bool first_series) {
  if (first_series) {
    append_fmt(out, "# TYPE %s histogram\n", family);
  }
  std::uint64_t cum = 0;
  for (int i = 0; i < kHistBuckets; ++i) {
    cum += buckets[i];
    append_fmt(out, "%s_bucket{%s=\"%s\",le=\"%s\"} %llu\n", family, label,
               label_value, le_of(i).c_str(),
               static_cast<unsigned long long>(cum));
  }
  append_fmt(out, "%s_bucket{%s=\"%s\",le=\"+Inf\"} %llu\n", family, label,
             label_value, static_cast<unsigned long long>(cum));
  append_fmt(out, "%s_sum{%s=\"%s\"} %.9g\n", family, label, label_value,
             sum);
  append_fmt(out, "%s_count{%s=\"%s\"} %llu\n", family, label, label_value,
             static_cast<unsigned long long>(cum));
}

std::string le_number(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

const char* entry_point_name(EntryPoint ep) {
  const int i = static_cast<int>(ep);
  return (i >= 0 && i < kEntryPointCount) ? kEntryPointNames[i] : "?";
}

const char* status_label(int status) {
  return (status >= 0 && status < kStatusCount) ? kStatusLabels[status]
                                                : "unknown";
}

const char* counter_name(Counter c) {
  const int i = static_cast<int>(c);
  return (i >= 0 && i < kCounterCount) ? kCounterNames[i] : "?";
}

int bucket_index(std::uint64_t v) {
  if (v <= 1) return 0;
  return std::bit_width(v) - 1;
}

std::uint64_t bucket_limit(int i) {
  if (i >= kHistBuckets - 1) return UINT64_MAX;
  return std::uint64_t{1} << (i + 1);
}

int drift_bucket(double predicted_seconds, double measured_seconds) {
  if (!(predicted_seconds > 0.0) || !(measured_seconds > 0.0)) return -1;
  const double steps =
      kDriftBucketsPerLog2 * std::log2(measured_seconds / predicted_seconds);
  const long idx = kDriftCenter + std::lround(steps);
  if (idx < 0) return 0;
  if (idx >= kHistBuckets) return kHistBuckets - 1;
  return static_cast<int>(idx);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void record_call(EntryPoint ep, int status, std::uint64_t latency_ns, int m,
                 int n, int d, int k) {
  record_call_at(now_ns(), ep, status, latency_ns, m, n, d, k);
}

void record_call_at(std::uint64_t now, EntryPoint ep, int status,
                    std::uint64_t latency_ns, int m, int n, int d, int k) {
  if (!enabled()) return;
  const int e = static_cast<int>(ep);
  if (e < 0 || e >= kEntryPointCount) return;
  if (status < 0 || status >= kStatusCount) return;
  ShardRef& ref = my_shard();
  Shard& s = *ref.shard;
  const bool sh = ref.shared;
  bump(s.calls[e][status], 1, sh);
  const int lb = bucket_index(latency_ns);
  bump(s.latency[e][lb], 1, sh);
  bump(s.latency_sum_ns[e], latency_ns, sh);
  const int dims[4] = {m, n, d, k};
  for (int a = 0; a < 4; ++a) {
    const std::uint64_t v =
        dims[a] > 0 ? static_cast<std::uint64_t>(dims[a]) : 0;
    bump(s.shape[a][bucket_index(v)], 1, sh);
    bump(s.shape_sum[a], v, sh);
  }
  // Rolling window: the slot for this wall second.
  const std::uint64_t sec = now / 1000000000u;
  const int slot = static_cast<int>(sec % kWindowBuckets);
  rotate_window(s, slot, sec, sh);
  bump(s.win_status[slot][status], 1, sh);
  bump(s.win_latency[slot][lb], 1, sh);
  bump(s.win_latency_sum_ns[slot], latency_ns, sh);
}

void record_drift(bool f32, double predicted_seconds,
                  double measured_seconds) {
  record_drift_at(now_ns(), f32, predicted_seconds, measured_seconds);
}

void record_drift_at(std::uint64_t now, bool f32, double predicted_seconds,
                     double measured_seconds) {
  if (!enabled()) return;
  const int b = drift_bucket(predicted_seconds, measured_seconds);
  if (b < 0) return;
  ShardRef& ref = my_shard();
  Shard& s = *ref.shard;
  const int p = f32 ? 1 : 0;
  bump(s.drift[p][b], 1, ref.shared);
  const double millilog2 =
      1000.0 * std::log2(measured_seconds / predicted_seconds);
  const std::int64_t ml2 =
      static_cast<std::int64_t>(std::llround(millilog2));
  bump_signed(s.drift_sum_millilog2[p], ml2, ref.shared);
  const std::uint64_t sec = now / 1000000000u;
  const int slot = static_cast<int>(sec % kWindowBuckets);
  rotate_window(s, slot, sec, ref.shared);
  bump(s.win_drift_count[slot], 1, ref.shared);
  bump_signed(s.win_drift_sum_millilog2[slot], ml2, ref.shared);
}

void add_counter(Counter c, std::uint64_t v) {
  if (!enabled()) return;
  const int i = static_cast<int>(c);
  if (i < 0 || i >= kCounterCount) return;
  ShardRef& ref = my_shard();
  bump(ref.shard->counters[i], v, ref.shared);
}

void set_serve_health(int state) {
  if (state < 0) state = 0;
  if (state > 2) state = 2;
  g_serve_health.store(state, std::memory_order_relaxed);
}

int serve_health() {
  return g_serve_health.load(std::memory_order_relaxed);
}

const Slo& slo_from_env() {
  static const Slo slo = [] {
    Slo s;
    if (const char* e = std::getenv("GSKNN_SLO_LATENCY_MS")) {
      const double ms = std::strtod(e, nullptr);
      if (ms > 0.0) s.latency_target_s = ms / 1000.0;
    }
    if (const char* e = std::getenv("GSKNN_SLO_LATENCY_TARGET")) {
      const double q = std::strtod(e, nullptr);
      if (q > 0.0 && q < 1.0) s.latency_quantile = q;
    }
    if (const char* e = std::getenv("GSKNN_SLO_AVAILABILITY")) {
      const double a = std::strtod(e, nullptr);
      if (a > 0.0 && a < 1.0) s.availability_target = a;
    }
    return s;
  }();
  return slo;
}

MetricsSnapshot snapshot() { return snapshot_at(now_ns()); }

MetricsSnapshot snapshot_at(std::uint64_t now) {
  MetricsSnapshot out;
  out.enabled = enabled();
  out.serve_health = serve_health();
  out.window_now_sec = now / 1000000000u;
  out.slo = slo_from_env();
  // Window slots align across shards (slot = second % kWindowBuckets), but
  // a shard that idled may still hold a previous lap's second in a slot.
  // Reduce to the newest epoch per slot and only add matching shards.
  for (const Shard& s : g_shards) {
    for (int i = 0; i < kWindowBuckets; ++i) {
      const std::uint64_t e = s.win_epoch[i].load(std::memory_order_relaxed);
      if (e > out.window_epoch[i]) out.window_epoch[i] = e;
    }
  }
  // Rotate on read: slots only get their epoch refreshed by record(), so
  // after >kWindowBuckets idle seconds every slot still carries a previous
  // lap's second. Expire those here — a scrape (or SLO burn-rate read) of an
  // idle process must report an empty window, not the last burst of traffic
  // as if it were current. One second of future skew is tolerated (a
  // recording thread racing the scrape's clock read); beyond that the stamp
  // is clock damage and the slot is dropped rather than trusted forever.
  for (int i = 0; i < kWindowBuckets; ++i) {
    const std::uint64_t e = out.window_epoch[i];
    if (e == 0) continue;
    const bool future_damaged = e > out.window_now_sec + 1;
    const bool expired =
        e <= out.window_now_sec &&
        out.window_now_sec - e >= static_cast<std::uint64_t>(kWindowBuckets);
    if (future_damaged || expired) out.window_epoch[i] = 0;
  }
  for (const Shard& s : g_shards) {
    for (int i = 0; i < kWindowBuckets; ++i) {
      if (out.window_epoch[i] == 0 ||
          s.win_epoch[i].load(std::memory_order_relaxed) !=
              out.window_epoch[i]) {
        continue;
      }
      for (int st = 0; st < kStatusCount; ++st) {
        out.window_status[i][st] +=
            s.win_status[i][st].load(std::memory_order_relaxed);
      }
      for (int b = 0; b < kHistBuckets; ++b) {
        out.window_latency[i][b] +=
            s.win_latency[i][b].load(std::memory_order_relaxed);
      }
      out.window_latency_sum_ns[i] +=
          s.win_latency_sum_ns[i].load(std::memory_order_relaxed);
      out.window_drift_count[i] +=
          s.win_drift_count[i].load(std::memory_order_relaxed);
      out.window_drift_sum_millilog2[i] +=
          s.win_drift_sum_millilog2[i].load(std::memory_order_relaxed);
    }
  }
  for (const Shard& s : g_shards) {
    for (int e = 0; e < kEntryPointCount; ++e) {
      for (int st = 0; st < kStatusCount; ++st) {
        out.calls[e][st] += s.calls[e][st].load(std::memory_order_relaxed);
      }
      for (int b = 0; b < kHistBuckets; ++b) {
        out.latency[e][b] += s.latency[e][b].load(std::memory_order_relaxed);
      }
      out.latency_sum_ns[e] +=
          s.latency_sum_ns[e].load(std::memory_order_relaxed);
    }
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < kHistBuckets; ++b) {
        out.shape[a][b] += s.shape[a][b].load(std::memory_order_relaxed);
      }
      out.shape_sum[a] += s.shape_sum[a].load(std::memory_order_relaxed);
    }
    for (int p = 0; p < 2; ++p) {
      for (int b = 0; b < kHistBuckets; ++b) {
        out.drift[p][b] += s.drift[p][b].load(std::memory_order_relaxed);
      }
      out.drift_sum_millilog2[p] +=
          s.drift_sum_millilog2[p].load(std::memory_order_relaxed);
    }
    for (int c = 0; c < kCounterCount; ++c) {
      out.counters[c] += s.counters[c].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void reset() {
  for (Shard& s : g_shards) {
    for (int e = 0; e < kEntryPointCount; ++e) {
      for (int st = 0; st < kStatusCount; ++st) {
        s.calls[e][st].store(0, std::memory_order_relaxed);
      }
      for (int b = 0; b < kHistBuckets; ++b) {
        s.latency[e][b].store(0, std::memory_order_relaxed);
      }
      s.latency_sum_ns[e].store(0, std::memory_order_relaxed);
    }
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < kHistBuckets; ++b) {
        s.shape[a][b].store(0, std::memory_order_relaxed);
      }
      s.shape_sum[a].store(0, std::memory_order_relaxed);
    }
    for (int p = 0; p < 2; ++p) {
      for (int b = 0; b < kHistBuckets; ++b) {
        s.drift[p][b].store(0, std::memory_order_relaxed);
      }
      s.drift_sum_millilog2[p].store(0, std::memory_order_relaxed);
    }
    for (int c = 0; c < kCounterCount; ++c) {
      s.counters[c].store(0, std::memory_order_relaxed);
    }
    for (int i = 0; i < kWindowBuckets; ++i) {
      zero_window_slot(s, i);
      s.win_epoch[i].store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- MetricsSnapshot -------------------------------------------------------

std::uint64_t MetricsSnapshot::calls_total(EntryPoint ep) const {
  const int e = static_cast<int>(ep);
  if (e < 0 || e >= kEntryPointCount) return 0;
  std::uint64_t total = 0;
  for (int st = 0; st < kStatusCount; ++st) total += calls[e][st];
  return total;
}

std::uint64_t MetricsSnapshot::status_total(int status) const {
  if (status < 0 || status >= kStatusCount) return 0;
  std::uint64_t total = 0;
  for (int e = 0; e < kEntryPointCount; ++e) total += calls[e][status];
  return total;
}

std::uint64_t MetricsSnapshot::drift_count(int precision) const {
  if (precision < 0 || precision > 1) return 0;
  return sum_buckets(drift[precision]);
}

std::uint64_t MetricsSnapshot::latency_quantile_ns(EntryPoint ep,
                                                   double q) const {
  const int e = static_cast<int>(ep);
  if (e < 0 || e >= kEntryPointCount) return 0;
  const std::uint64_t total = sum_buckets(latency[e]);
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    cum += latency[e][b];
    if (cum >= rank) return bucket_limit(b);
  }
  return bucket_limit(kHistBuckets - 1);
}

bool MetricsSnapshot::window_slot_live(int i) const {
  if (i < 0 || i >= kWindowBuckets) return false;
  const std::uint64_t e = window_epoch[i];
  if (e == 0) return false;
  // A slot one second ahead of the snapshot cut (clock skew between the
  // recording thread and the scrape) still counts as live; anything further
  // ahead is clock damage, not traffic. The unbounded `e >= window_now_sec`
  // form of this clause used to grant eternal liveness to any future-stamped
  // slot.
  if (e > window_now_sec) return e - window_now_sec <= 1;
  return window_now_sec - e < kWindowBuckets;
}

std::uint64_t MetricsSnapshot::window_calls() const {
  std::uint64_t total = 0;
  for (int i = 0; i < kWindowBuckets; ++i) {
    if (!window_slot_live(i)) continue;
    for (int st = 0; st < kStatusCount; ++st) total += window_status[i][st];
  }
  return total;
}

std::uint64_t MetricsSnapshot::window_errors() const {
  std::uint64_t total = 0;
  for (int i = 0; i < kWindowBuckets; ++i) {
    if (!window_slot_live(i)) continue;
    for (int st = 1; st < kStatusCount; ++st) total += window_status[i][st];
  }
  return total;
}

double MetricsSnapshot::window_error_rate() const {
  const std::uint64_t total = window_calls();
  if (total == 0) return 0.0;
  return static_cast<double>(window_errors()) / static_cast<double>(total);
}

std::uint64_t MetricsSnapshot::window_latency_quantile_ns(double q) const {
  std::uint64_t merged[kHistBuckets] = {};
  std::uint64_t total = 0;
  for (int i = 0; i < kWindowBuckets; ++i) {
    if (!window_slot_live(i)) continue;
    for (int b = 0; b < kHistBuckets; ++b) {
      merged[b] += window_latency[i][b];
      total += window_latency[i][b];
    }
  }
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    cum += merged[b];
    if (cum >= rank) return bucket_limit(b);
  }
  return bucket_limit(kHistBuckets - 1);
}

double MetricsSnapshot::window_drift_mean_log2() const {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  for (int i = 0; i < kWindowBuckets; ++i) {
    if (!window_slot_live(i)) continue;
    count += window_drift_count[i];
    sum += window_drift_sum_millilog2[i];
  }
  if (count == 0) return 0.0;
  return static_cast<double>(sum) / 1000.0 / static_cast<double>(count);
}

double MetricsSnapshot::window_latency_burn_rate() const {
  const std::uint64_t target_ns = static_cast<std::uint64_t>(
      slo.latency_target_s > 0.0 ? slo.latency_target_s * 1e9 : 0.0);
  std::uint64_t total = 0;
  std::uint64_t within = 0;
  for (int i = 0; i < kWindowBuckets; ++i) {
    if (!window_slot_live(i)) continue;
    for (int b = 0; b < kHistBuckets; ++b) {
      const std::uint64_t c = window_latency[i][b];
      total += c;
      // A bucket counts as within-target only when its whole range is:
      // the straddling bucket is charged to the budget (conservative).
      if (bucket_limit(b) <= target_ns) within += c;
    }
  }
  if (total == 0) return 0.0;
  const double budget = 1.0 - slo.latency_quantile;
  if (budget <= 0.0) return 0.0;
  const double miss =
      static_cast<double>(total - within) / static_cast<double>(total);
  return miss / budget;
}

double MetricsSnapshot::window_availability_burn_rate() const {
  const double budget = 1.0 - slo.availability_target;
  if (budget <= 0.0) return 0.0;
  return window_error_rate() / budget;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  if (other.window_now_sec > window_now_sec) {
    window_now_sec = other.window_now_sec;
  }
  for (int i = 0; i < kWindowBuckets; ++i) {
    if (other.window_epoch[i] == window_epoch[i]) {
      for (int st = 0; st < kStatusCount; ++st) {
        window_status[i][st] += other.window_status[i][st];
      }
      for (int b = 0; b < kHistBuckets; ++b) {
        window_latency[i][b] += other.window_latency[i][b];
      }
      window_latency_sum_ns[i] += other.window_latency_sum_ns[i];
      window_drift_count[i] += other.window_drift_count[i];
      window_drift_sum_millilog2[i] += other.window_drift_sum_millilog2[i];
    } else if (other.window_epoch[i] > window_epoch[i]) {
      window_epoch[i] = other.window_epoch[i];
      for (int st = 0; st < kStatusCount; ++st) {
        window_status[i][st] = other.window_status[i][st];
      }
      for (int b = 0; b < kHistBuckets; ++b) {
        window_latency[i][b] = other.window_latency[i][b];
      }
      window_latency_sum_ns[i] = other.window_latency_sum_ns[i];
      window_drift_count[i] = other.window_drift_count[i];
      window_drift_sum_millilog2[i] = other.window_drift_sum_millilog2[i];
    }  // else: ours is newer, keep it
  }
  for (int e = 0; e < kEntryPointCount; ++e) {
    for (int st = 0; st < kStatusCount; ++st) {
      calls[e][st] += other.calls[e][st];
    }
    for (int b = 0; b < kHistBuckets; ++b) {
      latency[e][b] += other.latency[e][b];
    }
    latency_sum_ns[e] += other.latency_sum_ns[e];
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < kHistBuckets; ++b) shape[a][b] += other.shape[a][b];
    shape_sum[a] += other.shape_sum[a];
  }
  for (int p = 0; p < 2; ++p) {
    for (int b = 0; b < kHistBuckets; ++b) drift[p][b] += other.drift[p][b];
    drift_sum_millilog2[p] += other.drift_sum_millilog2[p];
  }
  for (int c = 0; c < kCounterCount; ++c) counters[c] += other.counters[c];
  // Health is a gauge, not a counter: the merged view is as sick as the
  // sickest contributor.
  if (other.serve_health > serve_health) serve_health = other.serve_health;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out.reserve(16384);
  append_fmt(out, "{\"metrics_version\":1,\"enabled\":%s",
             enabled ? "true" : "false");
  out += ",\"entry_points\":{";
  for (int e = 0; e < kEntryPointCount; ++e) {
    const EntryPoint ep = static_cast<EntryPoint>(e);
    append_fmt(out, "%s\"%s\":{\"calls\":{", e == 0 ? "" : ",",
               entry_point_name(ep));
    for (int st = 0; st < kStatusCount; ++st) {
      append_fmt(out, "%s\"%s\":%llu", st == 0 ? "" : ",", status_label(st),
                 static_cast<unsigned long long>(calls[e][st]));
    }
    append_fmt(out, "},\"latency_ns\":{\"count\":%llu,\"sum\":%llu,"
                    "\"buckets\":",
               static_cast<unsigned long long>(sum_buckets(latency[e])),
               static_cast<unsigned long long>(latency_sum_ns[e]));
    append_bucket_array(out, latency[e]);
    append_fmt(out, "},\"p50_ns\":%llu,\"p99_ns\":%llu}",
               static_cast<unsigned long long>(latency_quantile_ns(ep, 0.5)),
               static_cast<unsigned long long>(latency_quantile_ns(ep, 0.99)));
  }
  out += "},\"shape\":{";
  for (int a = 0; a < 4; ++a) {
    append_fmt(out, "%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"buckets\":",
               a == 0 ? "" : ",", kShapeDims[a],
               static_cast<unsigned long long>(sum_buckets(shape[a])),
               static_cast<unsigned long long>(shape_sum[a]));
    append_bucket_array(out, shape[a]);
    out += '}';
  }
  append_fmt(out, "},\"model_drift\":{\"center_bucket\":%d,"
                  "\"buckets_per_log2\":%d",
             kDriftCenter, kDriftBucketsPerLog2);
  for (int p = 0; p < 2; ++p) {
    append_fmt(out, ",\"%s\":{\"count\":%llu,\"sum_millilog2\":%lld,"
                    "\"buckets\":",
               p == 0 ? "f64" : "f32",
               static_cast<unsigned long long>(sum_buckets(drift[p])),
               static_cast<long long>(drift_sum_millilog2[p]));
    append_bucket_array(out, drift[p]);
    out += '}';
  }
  append_fmt(out,
             "},\"window\":{\"buckets\":%d,\"bucket_seconds\":%d,"
             "\"now_sec\":%llu,\"calls\":%llu,\"errors\":%llu,"
             "\"error_rate\":%.9g,\"p50_ns\":%llu,\"p99_ns\":%llu,"
             "\"drift_mean_log2\":%.9g",
             kWindowBuckets, kWindowBucketSeconds,
             static_cast<unsigned long long>(window_now_sec),
             static_cast<unsigned long long>(window_calls()),
             static_cast<unsigned long long>(window_errors()),
             window_error_rate(),
             static_cast<unsigned long long>(window_latency_quantile_ns(0.5)),
             static_cast<unsigned long long>(
                 window_latency_quantile_ns(0.99)),
             window_drift_mean_log2());
  append_fmt(out,
             ",\"slo\":{\"latency_target_s\":%.9g,\"latency_quantile\":%.9g,"
             "\"availability_target\":%.9g,\"latency_burn_rate\":%.9g,"
             "\"availability_burn_rate\":%.9g}",
             slo.latency_target_s, slo.latency_quantile,
             slo.availability_target, window_latency_burn_rate(),
             window_availability_burn_rate());
  out += ",\"series\":[";
  {
    // Live slots, oldest second first (epoch order, not slot order).
    int order[kWindowBuckets];
    int live = 0;
    for (int i = 0; i < kWindowBuckets; ++i) {
      if (window_slot_live(i)) order[live++] = i;
    }
    for (int a = 1; a < live; ++a) {  // tiny insertion sort by epoch
      const int v = order[a];
      int b = a;
      while (b > 0 && window_epoch[order[b - 1]] > window_epoch[v]) {
        order[b] = order[b - 1];
        --b;
      }
      order[b] = v;
    }
    for (int j = 0; j < live; ++j) {
      const int i = order[j];
      std::uint64_t slot_calls = 0, slot_errors = 0;
      for (int st = 0; st < kStatusCount; ++st) {
        slot_calls += window_status[i][st];
        if (st != 0) slot_errors += window_status[i][st];
      }
      append_fmt(out,
                 "%s{\"epoch_sec\":%llu,\"calls\":%llu,\"errors\":%llu,"
                 "\"latency_sum_ns\":%llu,\"drift_count\":%llu}",
                 j == 0 ? "" : ",",
                 static_cast<unsigned long long>(window_epoch[i]),
                 static_cast<unsigned long long>(slot_calls),
                 static_cast<unsigned long long>(slot_errors),
                 static_cast<unsigned long long>(window_latency_sum_ns[i]),
                 static_cast<unsigned long long>(window_drift_count[i]));
    }
  }
  out += "]},\"counters\":{";
  for (int c = 0; c < kCounterCount; ++c) {
    append_fmt(out, "%s\"%s\":%llu", c == 0 ? "" : ",",
               counter_name(static_cast<Counter>(c)),
               static_cast<unsigned long long>(counters[c]));
  }
  append_fmt(out, "},\"serve_health\":%d}", serve_health);
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  out.reserve(65536);
  append_fmt(out,
             "# HELP gsknn_metrics_enabled Whether aggregate recording is "
             "armed.\n# TYPE gsknn_metrics_enabled gauge\n"
             "gsknn_metrics_enabled %d\n",
             enabled ? 1 : 0);

  out += "# HELP gsknn_calls_total Entry-point calls by result status.\n"
         "# TYPE gsknn_calls_total counter\n";
  for (int e = 0; e < kEntryPointCount; ++e) {
    for (int st = 0; st < kStatusCount; ++st) {
      append_fmt(out, "gsknn_calls_total{entry=\"%s\",status=\"%s\"} %llu\n",
                 entry_point_name(static_cast<EntryPoint>(e)),
                 status_label(st),
                 static_cast<unsigned long long>(calls[e][st]));
    }
  }

  out += "# HELP gsknn_latency_seconds Per-entry-point call latency.\n";
  for (int e = 0; e < kEntryPointCount; ++e) {
    prom_histogram(
        out, "gsknn_latency_seconds", "entry",
        entry_point_name(static_cast<EntryPoint>(e)), latency[e],
        static_cast<double>(latency_sum_ns[e]) * 1e-9,
        [](int i) {
          return le_number(static_cast<double>(bucket_limit(i)) * 1e-9);
        },
        e == 0);
  }

  out += "# HELP gsknn_shape Workload shape distributions (m/n/d/k).\n";
  for (int a = 0; a < 4; ++a) {
    prom_histogram(
        out, "gsknn_shape", "dim", kShapeDims[a], shape[a],
        static_cast<double>(shape_sum[a]),
        [](int i) { return le_number(static_cast<double>(bucket_limit(i))); },
        a == 0);
  }

  out += "# HELP gsknn_model_drift_log2 log2(measured/predicted) kernel "
         "runtime vs the §2.6 performance model.\n";
  for (int p = 0; p < 2; ++p) {
    prom_histogram(
        out, "gsknn_model_drift_log2", "precision", p == 0 ? "f64" : "f32",
        drift[p], static_cast<double>(drift_sum_millilog2[p]) / 1000.0,
        [](int i) {
          return le_number((static_cast<double>(i - kDriftCenter) + 0.5) /
                           kDriftBucketsPerLog2);
        },
        p == 0);
  }

  out += "# HELP gsknn_events_total Governance and observability-health "
         "events.\n# TYPE gsknn_events_total counter\n";
  for (int c = 0; c < kCounterCount; ++c) {
    append_fmt(out, "gsknn_events_total{event=\"%s\"} %llu\n",
               counter_name(static_cast<Counter>(c)),
               static_cast<unsigned long long>(counters[c]));
  }

  append_fmt(out,
             "# HELP gsknn_serve_health Serving-runtime health state "
             "(0 healthy, 1 degraded, 2 unhealthy).\n"
             "# TYPE gsknn_serve_health gauge\n"
             "gsknn_serve_health %d\n",
             serve_health);

  // Rolling-window health gauges (last kWindowBuckets seconds).
  append_fmt(out,
             "# HELP gsknn_window_calls Calls in the rolling window.\n"
             "# TYPE gsknn_window_calls gauge\n"
             "gsknn_window_calls %llu\n",
             static_cast<unsigned long long>(window_calls()));
  append_fmt(out,
             "# HELP gsknn_window_errors Non-OK calls in the rolling "
             "window.\n# TYPE gsknn_window_errors gauge\n"
             "gsknn_window_errors %llu\n",
             static_cast<unsigned long long>(window_errors()));
  append_fmt(out,
             "# HELP gsknn_window_error_rate Non-OK fraction of windowed "
             "calls.\n# TYPE gsknn_window_error_rate gauge\n"
             "gsknn_window_error_rate %.9g\n",
             window_error_rate());
  out += "# HELP gsknn_window_latency_seconds Windowed latency quantiles "
         "(all entry points).\n"
         "# TYPE gsknn_window_latency_seconds gauge\n";
  append_fmt(out, "gsknn_window_latency_seconds{quantile=\"0.5\"} %.9g\n",
             static_cast<double>(window_latency_quantile_ns(0.5)) * 1e-9);
  append_fmt(out, "gsknn_window_latency_seconds{quantile=\"0.99\"} %.9g\n",
             static_cast<double>(window_latency_quantile_ns(0.99)) * 1e-9);
  append_fmt(out,
             "# HELP gsknn_window_drift_log2 Mean windowed "
             "log2(measured/predicted) model drift.\n"
             "# TYPE gsknn_window_drift_log2 gauge\n"
             "gsknn_window_drift_log2 %.9g\n",
             window_drift_mean_log2());
  out += "# HELP gsknn_window_burn_rate SLO burn rates over the rolling "
         "window (1.0 = spending the whole error budget).\n"
         "# TYPE gsknn_window_burn_rate gauge\n";
  append_fmt(out, "gsknn_window_burn_rate{slo=\"latency\"} %.9g\n",
             window_latency_burn_rate());
  append_fmt(out, "gsknn_window_burn_rate{slo=\"availability\"} %.9g\n",
             window_availability_burn_rate());
  return out;
}

}  // namespace gsknn::metrics
