// serve_steady: tickets through serving::Server.
//
// One generator thread (this one) sends tickets on absolute due times and
// collects completions; in the churn pass of a traced run a writer thread of
// its own erases and inserts reference ids beside it, so that a slow update
// never delays a send. Each ticket is timed from its due time to the moment
// the generator sees it terminal; percentiles come from those per-ticket
// samples. A run alternates two kinds of chunk:
//   * nominal: open-loop Poisson arrivals at kNominalRate, half
//     interactive, half bulk — the latency metrics;
//   * saturated: a closed-loop bulk client keeping kClosedLoopDepth tickets
//     outstanding — throughput (useful_gflops, serving.saturated_qps);
// and serve_steady then runs the sustained-rate search: bisection on the
// offered rate for the highest one meeting the interactive p99 limit with
// no refusal and no growing backlog. It runs last because overload there
// may flip the server to degraded mode for a few seconds.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gsknn/common/arch.hpp"
#include "gsknn/core/knn.hpp"
#include "gsknn/core/packed_refs.hpp"
#include "gsknn/data/generators.hpp"
#include "gsknn/model/perf_model.hpp"
#include "gsknn/serving/server.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using gsknn::PackedRefs;
using gsknn::PointTable;
using gsknn::Status;
using gsknn::serving::Lane;
using gsknn::serving::Server;
using gsknn::serving::TicketId;

// Reference set: d = 32, n = 16128 — about 4 MB packed, above one core's
// L2 and well inside L3. Query ids and the churn spare pool are disjoint
// from it, so every ticket ranks exactly the n references.
constexpr int kDim = 32;
constexpr int kRefs = 16128;
constexpr int kK = 16;
constexpr int kQueryPool = 2048;
constexpr int kSpare = 4096;

constexpr int kWorkers = 2;
/// Cold set-ups per untraced run, each in a fresh child process (~8 ms
/// each); setup_s is the median of these and the run's own set-up.
constexpr int kSetups = 15;
/// Open-loop rate of the nominal phase (tickets/s): under a third of the
/// saturated rate, with or without churn, even when a shared host runs slow
/// (saturation read 2000-4400 tickets/s across runs). Nearer the knee,
/// bulk fused calls grow with the queue and interactive p99 swings 10x.
constexpr double kNominalRate = 600.0;
/// Interactive p99 limit of the sustained-rate search.
constexpr double kLatencyLimitMs = 25.0;
/// Closed-loop depth: below the degraded-mode bulk cap (4096 / 8 = 512) so
/// the saturated phase measures throughput, never shedding, and deep enough
/// that the queue never drains. At depth 128 the queue wait (~40 ms) matched
/// a 40 ms churn period, so a requeued ticket met an update on every retry and
/// ~1e-4 of churned tickets failed kStale after RetryPolicy's 8 tries.
constexpr int kClosedLoopDepth = 32;
/// Churn pass: every kChurnPeriod seconds the writer thread erases
/// kChurnIds reference ids and inserts as many from the spare pool.
constexpr int kChurnIds = 64;
constexpr double kChurnPeriod = 0.1;
/// The churn pass lasts this share of --seconds.
constexpr double kChurnShare = 0.25;
/// A run alternates kNominalChunkS of open-loop arrivals with
/// kSaturatedChunkS of closed loop. Interactive p50 and p90 are medians
/// over the nominal chunks of each chunk's percentile (~300 samples, so 30
/// beyond the p90); saturated throughput is the median over closed-loop
/// chunks, each without its first kRampFrac. The p99s pool all chunks.
constexpr double kNominalChunkS = 1.0;
constexpr double kSaturatedChunkS = 0.4;
constexpr double kRampFrac = 0.1;
/// The generator polls Server::stats for completions every kPollS seconds.
constexpr double kPollS = 100e-6;
/// Every kVerifyEvery-th kOk ticket is checked against a cold kernel call.
constexpr int kVerifyEvery = 8;

struct Fixture {
  PointTable X;
  std::vector<int> refs;     ///< the server's id list, replayed exactly
  std::vector<int> spare;    ///< ids outside the set (churn inserts)
  std::vector<int> queries;  ///< query ids, never references
  /// The pass's first generation and every update since, so verification
  /// can rebuild the id list of any generation by replaying them.
  std::vector<int> base_refs;
  struct Update {
    std::uint64_t epoch = 0;  ///< epoch after the update
    bool erase = false;
    std::vector<int> ids;
  };
  std::vector<Update> updates;
};

/// Apply one update the way PackedRefs does: erase swap-removes the first
/// occurrence of each id in order, insert appends.
void apply(std::vector<int>& list, const Fixture::Update& u) {
  if (!u.erase) {
    list.insert(list.end(), u.ids.begin(), u.ids.end());
    return;
  }
  for (const int id : u.ids) {
    const auto it = std::find(list.begin(), list.end(), id);
    *it = list.back();
    list.pop_back();
  }
}

struct Sample {
  int query = 0;
  std::uint64_t epoch_lo = 0, epoch_hi = 0;
  std::vector<int> ids;
  std::vector<double> dists;
};

struct PhaseResult {
  std::vector<double> inter_ms, bulk_ms, lag_ms, submit_us;
  std::vector<double> done_at;    ///< when each kOk ticket was seen done
  std::uint64_t submitted = 0, refused = 0, not_ok = 0, completed_ok = 0;
  std::string failures;  ///< status names of refused / non-kOk tickets
  double window_s = 0.0;                  ///< arrival / measuring window
  std::size_t backlog_end = 0;            ///< outstanding when arrivals end
  bool drained = true;
  std::vector<Sample> samples;
};

struct Pending {
  TicketId id = 0;
  double due = 0.0;
  Lane lane = Lane::kInteractive;
  int query = 0;
  std::uint64_t epoch_lo = 0;
};

std::uint64_t terminal_count(const Server::Stats& s) {
  return s.completed + s.cancelled + s.expired + s.failed;
}

/// Update latencies of the churn writer.
struct ChurnLog {
  std::vector<double> insert_us, erase_us;
};

/// One churn event: erase kChurnIds random members, insert kChurnIds spare
/// ids. fx.refs tracks the server's list (order included) and both updates
/// are recorded for verification. Only the writer thread touches fx.refs,
/// fx.spare and fx.updates while a pass runs.
void churn_once(Server& srv, Fixture& fx, std::mt19937_64& rng,
                ChurnLog& out) {
  std::vector<int> gone;
  for (int i = 0; i < kChurnIds; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, fx.refs.size() - 1);
    const std::size_t pos = pick(rng);
    gone.push_back(fx.refs[pos]);
    fx.refs[pos] = fx.refs.back();
    fx.refs.pop_back();
  }
  Clock::time_point t0 = Clock::now();
  if (srv.erase_refs("main", gone) != Status::kOk) {
    throw std::runtime_error("erase_refs failed");
  }
  out.erase_us.push_back(seconds_since(t0) * 1e6);
  fx.updates.push_back({srv.refs_epoch("main"), true, gone});

  std::vector<int> fresh;
  for (int i = 0; i < kChurnIds; ++i) {
    std::uniform_int_distribution<std::size_t> pick(0, fx.spare.size() - 1);
    const std::size_t pos = pick(rng);
    fresh.push_back(fx.spare[pos]);
    fx.spare[pos] = fx.spare.back();
    fx.spare.pop_back();
  }
  t0 = Clock::now();
  if (srv.insert_refs("main", fresh) != Status::kOk) {
    throw std::runtime_error("insert_refs failed");
  }
  out.insert_us.push_back(seconds_since(t0) * 1e6);
  fx.refs.insert(fx.refs.end(), fresh.begin(), fresh.end());
  fx.spare.insert(fx.spare.end(), gone.begin(), gone.end());
  fx.updates.push_back({srv.refs_epoch("main"), false, fresh});
}

/// The churn writer: a thread that runs churn_once every kChurnPeriod
/// seconds, on absolute times, until stop(), which joins it and rethrows
/// what it threw. A null server starts no thread.
class Writer {
 public:
  Writer(Server* srv, Fixture& fx, std::uint64_t seed, ChurnLog& log) {
    if (srv == nullptr) return;
    thread_ = std::thread([this, srv, &fx, seed, &log] {
      std::mt19937_64 rng(seed);
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kChurnPeriod));
      Clock::time_point next = Clock::now() + period;
      try {
        for (;;) {
          std::this_thread::sleep_until(next);
          if (done_.load(std::memory_order_acquire)) return;
          churn_once(*srv, fx, rng, log);
          next += period;
        }
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { join(); }

  void stop() {
    join();
    if (!error_.empty()) throw std::runtime_error(error_);
  }

 private:
  void join() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::thread thread_;
  std::atomic<bool> done_{false};
  std::string error_;
};

/// The generator loop. Open loop (`rate` > 0): Poisson arrivals for
/// `duration` seconds, each ticket timed from its due time. Closed loop
/// (`rate` == 0): kClosedLoopDepth bulk tickets kept outstanding for
/// `duration` seconds. Either way the call returns once every ticket is
/// terminal.
PhaseResult drive(Server& srv, const Fixture& fx, std::mt19937_64& rng,
                  double rate, double duration, bool verify) {
  PhaseResult out;
  std::vector<double> dues;
  std::vector<Lane> lanes;
  if (rate > 0.0) {
    std::exponential_distribution<double> gap(rate);
    std::bernoulli_distribution bulk(0.5);
    for (double t = gap(rng); t < duration; t += gap(rng)) {
      dues.push_back(t);
      lanes.push_back(bulk(rng) ? Lane::kBulk : Lane::kInteractive);
    }
  }
  std::uniform_int_distribution<std::size_t> qpick(0, fx.queries.size() - 1);
  std::deque<Pending> pending;
  std::uint64_t seen_terminal = terminal_count(srv.stats());
  std::uint64_t ok_count = 0;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  auto now = [&] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  std::size_t next = 0;

  auto submit = [&](double due, Lane lane) -> bool {
    gsknn::serving::SubmitOptions so;
    so.lane = lane;
    const int q = fx.queries[qpick(rng)];
    // The epoch read before submit is a lower bound on the generation the
    // ticket ranks; the one read when it is seen done, an upper bound.
    const std::uint64_t epoch_lo = srv.refs_epoch("main");
    const Clock::time_point s0 = Clock::now();
    const double lag = now() - due;
    const TicketId t = srv.submit("main", q, kK, so);
    out.submit_us.push_back(seconds_since(s0) * 1e6);
    out.lag_ms.push_back(std::max(0.0, lag) * 1e3);
    ++out.submitted;
    if (t == 0) {
      ++out.refused;
      out.failures += " refused";
      return false;
    }
    pending.push_back({t, due, lane, q, epoch_lo});
    return true;
  };

  // Tickets seen terminal so far; a stats() snapshot showing more than
  // that triggers a poll scan, oldest first, until the difference is found.
  auto collect = [&] {
    const std::uint64_t term = terminal_count(srv.stats());
    const double seen_at = now();
    for (auto it = pending.begin();
         seen_terminal < term && it != pending.end();) {
      Status st = Status::kOk;
      if (!srv.poll(it->id, &st)) {
        ++it;
        continue;
      }
      ++seen_terminal;
      const double ms = (seen_at - it->due) * 1e3;
      if (st != Status::kOk) {
        ++out.not_ok;
        out.failures += std::string(" ") + gsknn::status_name(st);
      } else {
        ++out.completed_ok;
        out.done_at.push_back(seen_at);
        if (it->lane == Lane::kBulk) {
          out.bulk_ms.push_back(ms);
        } else {
          out.inter_ms.push_back(ms);
        }
        if (verify && (ok_count++ % kVerifyEvery) == 0) {
          Sample s;
          s.query = it->query;
          s.epoch_lo = it->epoch_lo;
          s.epoch_hi = srv.refs_epoch("main");
          s.ids.resize(kK);
          s.dists.resize(kK);
          const int got = srv.result(it->id, s.ids, s.dists);
          s.ids.resize(static_cast<std::size_t>(std::max(0, got)));
          s.dists.resize(s.ids.size());
          out.samples.push_back(std::move(s));
        }
      }
      it = pending.erase(it);
    }
  };

  if (rate == 0.0) {
    for (int i = 0; i < kClosedLoopDepth && submit(0.0, Lane::kBulk); ++i) {
    }
  }
  for (;;) {
    const double t = now();
    const bool arriving = rate > 0.0 ? next < dues.size() : t < duration;
    if (!arriving && out.window_s == 0.0) {
      out.window_s = duration;
      out.backlog_end = pending.size();
    }
    if (!arriving && pending.empty()) break;
    if (!arriving && t > duration + 10.0) {
      out.drained = false;
      out.not_ok += pending.size();
      for (const Pending& p : pending) srv.cancel(p.id);
      break;
    }
    if (rate > 0.0) {
      while (next < dues.size() && dues[next] <= now()) {
        submit(dues[next], lanes[next]);
        ++next;
      }
    }
    collect();
    if (rate == 0.0 && arriving) {
      while (static_cast<int>(pending.size()) < kClosedLoopDepth &&
             submit(now(), Lane::kBulk)) {
      }
    }
    // Spin, not sleep, until the next poll or due time: a sleeping
    // thread's wake-up delay on a busy host (up to milliseconds) would be
    // added to every ticket's measured latency and to the send lag.
    double wake = t + kPollS;
    if (rate > 0.0 && next < dues.size()) wake = std::min(wake, dues[next]);
    while (now() < wake) {
    }
  }
  return out;
}

/// Check sampled tickets bitwise against a cold single-query kernel call
/// over each generation live between submit and completion; returns the
/// number that matched none. Generations are rebuilt by replaying the
/// recorded updates, in epoch order.
std::uint64_t verify(const Fixture& fx, std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.epoch_lo < b.epoch_lo; });
  gsknn::KnnConfig cfg;
  cfg.threads = 1;
  auto matches = [&](const Sample& s, const std::vector<int>& refs) {
    gsknn::NeighborTable nn(1, kK);
    gsknn::knn_kernel(fx.X, std::span<const int>(&s.query, 1), refs, nn, cfg);
    const auto row = nn.sorted_row(0);
    bool same = row.size() == s.ids.size();
    for (std::size_t j = 0; same && j < row.size(); ++j) {
      same = row[j].second == s.ids[j] && row[j].first == s.dists[j];
    }
    return same;
  };
  std::uint64_t wrong = 0;
  std::vector<int> list = fx.base_refs;  // generation at epoch_lo
  std::size_t next = 0;                  // first update not in `list`
  for (const Sample& s : samples) {
    while (next < fx.updates.size() && fx.updates[next].epoch <= s.epoch_lo) {
      apply(list, fx.updates[next++]);
    }
    bool match = matches(s, list);
    std::vector<int> later = list;
    for (std::size_t u = next; !match && u < fx.updates.size() &&
                               fx.updates[u].epoch <= s.epoch_hi;
         ++u) {
      apply(later, fx.updates[u]);
      match = matches(s, later);
    }
    if (!match) ++wrong;
  }
  return wrong;
}

struct Pass {
  double setup_s = 0.0, create_s = 0.0;
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0, bulk_p99_ms = 0.0;
  double saturated_qps = 0.0, sustained_qps = 0.0;
  double lag_p99_ms = 0.0, submit_p50_us = 0.0, submit_p99_us = 0.0;
  double fusion_ratio = 0.0;
  std::uint64_t fused_calls = 0, requeues = 0, refused = 0, expired = 0;
  std::uint64_t bytes_packed = 0, hits = 0, misses = 0, evictions = 0;
  std::vector<double> insert_us, erase_us;
};

/// Append chunk `c`'s samples and counts to `all`.
void absorb(PhaseResult& all, PhaseResult&& c) {
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(all.inter_ms, c.inter_ms);
  cat(all.bulk_ms, c.bulk_ms);
  cat(all.lag_ms, c.lag_ms);
  cat(all.submit_us, c.submit_us);
  all.submitted += c.submitted;
  all.refused += c.refused;
  all.not_ok += c.not_ok;
  all.completed_ok += c.completed_ok;
  all.failures += c.failures;
  all.window_s += c.window_s;
  all.backlog_end = std::max(all.backlog_end, c.backlog_end);
  all.drained = all.drained && c.drained;
  for (Sample& s : c.samples) all.samples.push_back(std::move(s));
}

/// Offered-rate step of the sustained search: passes when nothing is
/// refused or fails, interactive p99 meets the limit and the backlog left
/// when arrivals stop is no more than ~50 ms of work plus one fused call.
bool step_passes(const PhaseResult& r, double rate) {
  return r.refused == 0 && r.not_ok == 0 && r.drained &&
         quantile(r.inter_ms, 0.99) <= kLatencyLimitMs &&
         static_cast<double>(r.backlog_end) <= 0.05 * rate + 64.0;
}

/// Set-up: Server construction, create_refs and a priming ticket that packs
/// every block. Stores its wall time and that of create_refs.
std::unique_ptr<Server> set_up(const Fixture& fx, double& setup_s,
                               double& create_s) {
  gsknn::serving::ServerOptions sopt;
  sopt.workers = kWorkers;
  sopt.kernel_threads = 1;
  const Clock::time_point t0 = Clock::now();
  auto srv = std::make_unique<Server>(fx.X, sopt);
  const Clock::time_point c0 = Clock::now();
  if (srv->create_refs("main", fx.refs) != Status::kOk) {
    throw std::runtime_error("create_refs failed");
  }
  create_s = seconds_since(c0);
  const TicketId t = srv->submit("main", fx.queries[0], kK);
  if (t == 0 || srv->wait(t) != Status::kOk) {
    throw std::runtime_error("priming ticket failed");
  }
  setup_s = seconds_since(t0);
  return srv;
}

/// One full pass of the workload over `seconds`. Returns the pass's figures
/// and adds its attempts, failures and wrong results to `rep`.
Pass run_pass(Fixture& fx, std::mt19937_64& rng, bool churn, double seconds,
              Report& rep) {
  Pass p;
  const std::unique_ptr<Server> srv = set_up(fx, p.setup_s, p.create_s);
  fx.base_refs = fx.refs;
  fx.updates.clear();

  const Server::Stats s0 = srv->stats();
  const PackedRefs::Stats r0 = *srv->refs_stats("main");

  // Nominal and saturated chunks alternate over the run, so a burst of
  // contention on a shared host lands in a few chunks of each, and the
  // per-chunk medians below leave it out.
  const double cycle_s = kNominalChunkS + kSaturatedChunkS;
  const int cycles = std::max(
      2, static_cast<int>(std::lround(seconds * (churn ? 1.0 : 0.7) / cycle_s)));
  PhaseResult nom, sat;
  std::vector<double> chunk_p50, chunk_p90, chunk_qps;
  ChurnLog churn_log;
  Writer writer(churn ? srv.get() : nullptr, fx, rng(), churn_log);
  for (int c = 0; c < cycles; ++c) {
    PhaseResult n = drive(*srv, fx, rng, kNominalRate, kNominalChunkS, true);
    chunk_p50.push_back(quantile(n.inter_ms, 0.5));
    chunk_p90.push_back(quantile(n.inter_ms, 0.9));
    absorb(nom, std::move(n));

    const Server::Stats before = srv->stats();
    PhaseResult r = drive(*srv, fx, rng, 0.0, kSaturatedChunkS, true);
    const Server::Stats after = srv->stats();
    const double ramp = kRampFrac * kSaturatedChunkS;
    const auto done = std::count_if(r.done_at.begin(), r.done_at.end(), [&](double t) {
      return t >= ramp && t <= kSaturatedChunkS;
    });
    chunk_qps.push_back(static_cast<double>(done) / (kSaturatedChunkS - ramp));
    p.fused_calls += after.fused_calls - before.fused_calls;
    p.fusion_ratio += static_cast<double>(after.fused_queries - before.fused_queries);
    absorb(sat, std::move(r));
  }
  writer.stop();
  const Server::Stats s2 = srv->stats();
  const PackedRefs::Stats r2 = *srv->refs_stats("main");

  for (const PhaseResult* r : {&nom, &sat}) {
    if (!r->failures.empty()) {
      rep.notes.push_back((r == &nom ? "nominal failed:" : "saturated failed:") +
                          r->failures);
    }
    rep.attempted += r->submitted;
    rep.failed += r->refused + r->not_ok;
    p.refused += r->refused;
  }
  p.insert_us = std::move(churn_log.insert_us);
  p.erase_us = std::move(churn_log.erase_us);
  std::vector<Sample> samples = nom.samples;
  samples.insert(samples.end(), sat.samples.begin(), sat.samples.end());
  std::uint64_t wrong = verify(fx, samples);
  p.bytes_packed = r2.bytes_packed - r0.bytes_packed;
  if (!churn && p.bytes_packed != 0) {
    // Warm refs never change on serve_steady: a timed phase that packs
    // panels is a broken warm path.
    rep.notes.push_back("wrong: warm serving packed " +
                        std::to_string(p.bytes_packed) + " bytes");
    ++wrong;
  }
  rep.wrong += wrong;
  rep.failed += wrong;

  p.p50_ms = median(chunk_p50);
  p.p90_ms = median(chunk_p90);
  p.p99_ms = quantile(nom.inter_ms, 0.99);
  p.bulk_p99_ms = quantile(nom.bulk_ms, 0.99);
  p.lag_p99_ms = quantile(nom.lag_ms, 0.99);
  p.submit_p50_us = quantile(nom.submit_us, 0.5);
  p.submit_p99_us = quantile(nom.submit_us, 0.99);
  p.saturated_qps = median(chunk_qps);
  p.fusion_ratio = p.fused_calls > 0
                       ? p.fusion_ratio / static_cast<double>(p.fused_calls)
                       : 0.0;
  p.requeues = s2.requeues - s0.requeues;
  p.expired = s2.expired - s0.expired;
  p.hits = r2.hits - r0.hits;
  p.misses = r2.misses - r0.misses;
  p.evictions = r2.evictions - r0.evictions;
  rep.notes.push_back(
      std::to_string(cycles) + " cycles; nominal " +
      std::to_string(nom.inter_ms.size()) + " interactive / " +
      std::to_string(nom.bulk_ms.size()) + " bulk samples at " +
      std::to_string(static_cast<int>(kNominalRate)) + "/s; saturated " +
      std::to_string(sat.completed_ok) + " completions at depth " +
      std::to_string(kClosedLoopDepth) + "; verified " +
      std::to_string(samples.size()) + " tickets");

  if (!churn) {
    // Bisection between the nominal rate (a pass when the nominal chunks
    // met the limit) and just above the saturated throughput.
    const double step_s = 1.0;
    double lo = step_passes(nom, kNominalRate) ? kNominalRate : 0.0;
    double lo_achieved =
        lo > 0.0 ? static_cast<double>(nom.submitted) / nom.window_s : 0.0;
    double hi = std::max(1.1 * p.saturated_qps, 1.5 * kNominalRate);
    const int steps = std::max(1, static_cast<int>(seconds * 0.3 / (step_s + 0.2)));
    for (int i = 0; i < steps && lo > 0.0; ++i) {
      const double rate = 0.5 * (lo + hi);
      const PhaseResult r = drive(*srv, fx, rng, rate, step_s, false);
      if (step_passes(r, rate)) {
        lo = rate;
        lo_achieved = static_cast<double>(r.submitted) / r.window_s;
      } else {
        hi = rate;
      }
    }
    p.sustained_qps = lo_achieved;
    rep.notes.push_back("sustained search: " + std::to_string(steps) +
                        " steps of " + std::to_string(step_s) +
                        " s, interactive p99 limit " +
                        std::to_string(kLatencyLimitMs) + " ms");
  }
  return p;
}

/// Warm single-thread knn_kernel(PackedRefs&) call time at m queries.
double warm_call_us(PackedRefs& refs, const Fixture& fx, int m) {
  std::vector<int> q(fx.queries.begin(), fx.queries.begin() + m);
  gsknn::NeighborTable nn(m, kK);
  gsknn::KnnConfig cfg;
  cfg.threads = 1;
  gsknn::knn_kernel(refs, q, nn, cfg);
  std::vector<double> t;
  const int reps = m == 1 ? 200 : 40;
  for (int i = 0; i < reps; ++i) {
    nn.reset();
    const Clock::time_point t0 = Clock::now();
    gsknn::knn_kernel(refs, q, nn, cfg);
    t.push_back(seconds_since(t0) * 1e6);
  }
  return median(t);
}

}  // namespace

void run_serve(const Options& opt, Report& rep) {
  std::mt19937_64 rng(opt.seed);
  Fixture fx;
  const int total = kRefs + kSpare + kQueryPool;
  fx.X = gsknn::make_uniform(kDim, total, opt.seed);
  std::vector<int> perm(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) perm[static_cast<std::size_t>(i)] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  fx.refs.assign(perm.begin(), perm.begin() + kRefs);
  fx.spare.assign(perm.begin() + kRefs, perm.begin() + kRefs + kSpare);
  fx.queries.assign(perm.begin() + kRefs + kSpare, perm.end());
  const double ticket_flops = useful_flops(1, kRefs, kDim);

  if (!opt.trace) {
    std::vector<double> setups = cold_setups(kSetups, [&] {
      double setup_s = 0.0, create_s = 0.0;
      set_up(fx, setup_s, create_s);
      return setup_s;
    });
    const Pass p = run_pass(fx, rng, false, opt.seconds, rep);
    setups.push_back(p.setup_s);
    rep.set("setup_s", median(setups), "s");
    rep.set("p50_ms", p.p50_ms, "ms");
    rep.set("useful_gflops", p.saturated_qps * ticket_flops / 1e9, "GFLOP/s");
    rep.notes.push_back("interactive_p50_ms " + std::to_string(p.p50_ms) +
                        ", interactive_p90_ms " + std::to_string(p.p90_ms) +
                        ", interactive_p99_ms " + std::to_string(p.p99_ms) +
                        ", bulk_p99_ms " + std::to_string(p.bulk_p99_ms) +
                        ", saturated_qps " + std::to_string(p.saturated_qps) +
                        ", sustained_qps " + std::to_string(p.sustained_qps));
    return;
  }

  // Traced run: one pass as an untraced run makes it, a shorter churn pass
  // on a fresh server for the write path (requeues, repacks, update
  // latency), then direct probes of the packed-refs warm path and the §2.6
  // model. Serving has no trace hook, so the first pass runs the same code
  // as an untraced one and trace.overhead_frac is 0.
  const std::vector<int> initial_refs = fx.refs;
  const Pass p = run_pass(fx, rng, false, opt.seconds, rep);
  const Pass c = run_pass(fx, rng, true, kChurnShare * opt.seconds, rep);

  PackedRefs refs;
  if (refs.build(fx.X, initial_refs) != Status::kOk) {
    throw std::runtime_error("PackedRefs::build failed");
  }
  const double w1 = warm_call_us(refs, fx, 1);
  const double w16 = warm_call_us(refs, fx, 16);
  const double w64 = warm_call_us(refs, fx, 64);
  const gsknn::model::MachineParams mp = gsknn::model::calibrate(1);
  const gsknn::BlockingParams& bp = refs.blocking();
  auto pred_over_meas = [&](int m, double us) {
    const gsknn::model::ProblemShape s{m, kRefs, kDim, kK};
    return gsknn::model::predicted_time(gsknn::model::Method::kVar1, s, mp, bp) /
           (us * 1e-6);
  };

  rep.set("serving.submit_us.p50", p.submit_p50_us, "us");
  rep.set("serving.submit_us.p99", p.submit_p99_us, "us");
  rep.set("serving.fusion_ratio", p.fusion_ratio, "ratio");
  rep.set("serving.fused_calls", static_cast<double>(p.fused_calls), "count");
  rep.set("serving.ceiling_ratio", p.saturated_qps / (64.0 / (w64 * 1e-6)),
          "ratio");
  rep.set("serving.requeues", static_cast<double>(c.requeues), "count");
  rep.set("serving.refused", static_cast<double>(p.refused), "count");
  rep.set("serving.expired", static_cast<double>(p.expired), "count");
  rep.set("serving.generator_lag_ms.p99", p.lag_p99_ms, "ms");
  rep.set("serving.sustained_qps", p.sustained_qps, "1/s");
  rep.set("serving.saturated_qps", p.saturated_qps, "1/s");
  rep.set("serving.bulk_p99_ms", p.bulk_p99_ms, "ms");
  rep.set("serving.interactive_p90_ms", p.p90_ms, "ms");
  rep.set("serving.interactive_p99_ms", p.p99_ms, "ms");
  rep.set("packed_refs.bytes_packed", static_cast<double>(p.bytes_packed),
          "bytes");
  // The write path, from the churn pass.
  const double acquisitions = static_cast<double>(c.hits + c.misses);
  rep.set("packed_refs.hit_ratio",
          acquisitions > 0 ? static_cast<double>(c.hits) / acquisitions : 0.0,
          "ratio");
  rep.set("packed_refs.evictions", static_cast<double>(c.evictions), "count");
  rep.set("packed_refs.insert_us.p50", quantile(c.insert_us, 0.5), "us");
  rep.set("packed_refs.insert_us.p99", quantile(c.insert_us, 0.99), "us");
  rep.set("packed_refs.erase_us.p50", quantile(c.erase_us, 0.5), "us");
  rep.set("packed_refs.erase_us.p99", quantile(c.erase_us, 0.99), "us");
  rep.set("packed_refs.create_s", p.create_s, "s");
  rep.set("packed_refs.warm_call_us.m1", w1, "us");
  rep.set("packed_refs.warm_call_us.m16", w16, "us");
  rep.set("packed_refs.warm_call_us.m64", w64, "us");
  rep.set("model.pred_over_meas.m1", pred_over_meas(1, w1), "ratio");
  rep.set("model.pred_over_meas.m16", pred_over_meas(16, w16), "ratio");
  rep.set("model.pred_over_meas.m64", pred_over_meas(64, w64), "ratio");
  rep.set("trace.overhead_frac", 0.0, "ratio");
}

}  // namespace perfbench
