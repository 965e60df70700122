// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload <serve_steady|allnn|kernel>
//             --seed <n> --seconds <s> --trace <0|1> [--inject-slowdown <f>]
//
// Prints a provenance line, human-readable summary lines (among them the
// `# host` contention line) and, as the last line of stdout, one JSON object
// {correct, attempted, failed, metrics} holding the metrics the run
// measured: the end-to-end ones with --trace 0, the per-layer ones with
// --trace 1. Exits 1 on any wrong result and 2 on bad arguments.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gsknn/common/arch.hpp"
#include "gsknn/common/pmu.hpp"
#include "harness.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void note_pmu(const gsknn::telemetry::KernelProfile& prof, Report& rep) {
  if (!prof.pmu_enabled) {
    rep.notes.push_back("pmu unavailable (perf_event): no ipc or llc misses");
    return;
  }
  rep.notes.push_back(
      "pmu ipc " + std::to_string(prof.ipc()) + ", llc_misses_per_kinstr " +
      std::to_string(prof.mpki(gsknn::telemetry::PmuEvent::kLlcMisses)));
}

std::vector<double> cold_setups(int n, const std::function<double()>& setup) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      int code = 1;
      try {
        const double t = setup();
        code = write(fds[1], &t, sizeof(t)) == sizeof(t) ? 0 : 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      }
      _exit(code);
    }
    close(fds[1]);
    double t = 0.0;
    const bool got = read(fds[0], &t, sizeof(t)) == sizeof(t);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("a cold set-up failed");
    }
    out.push_back(t);
  }
  return out;
}

namespace {

/// Host contention over a run, from /proc/stat (the whole machine, in clock
/// ticks) and this process's own CPU time (getrusage, set-up children
/// included): steal_frac is the share of the machine's CPU time the
/// hypervisor gave to others, foreign_frac the share spent busy on work
/// other than this benchmark's threads (other processes, and interrupt
/// handling, which a serving run's wake-ups cause). The regression gate
/// refuses to compare sets of runs whose contention differs.
class HostLoad {
 public:
  HostLoad()
      : t0_(Clock::now()),
        own0_(own_cpu_s()),
        ok_(sample(busy0_, steal0_, total0_)) {}

  /// The `# host` summary line's JSON body.
  std::string json() const {
    double busy1 = 0, steal1 = 0, total1 = 0;
    if (!ok_ || !sample(busy1, steal1, total1) || total1 <= total0_) {
      return "{\"steal_frac\": null, \"foreign_frac\": null}";
    }
    const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    const double capacity =
        seconds_since(t0_) * std::thread::hardware_concurrency();
    const double foreign = (busy1 - busy0_) * tick - (own_cpu_s() - own0_);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"steal_frac\": %.4f, \"foreign_frac\": %.4f}",
                  (steal1 - steal0_) / (total1 - total0_),
                  std::max(0.0, foreign / capacity));
    return buf;
  }

 private:
  /// First line of /proc/stat: user nice system idle iowait irq softirq
  /// steal ...; busy is user + nice + system + irq + softirq.
  static bool sample(double& busy, double& steal, double& total) {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return false;
    unsigned long long v[8] = {};
    const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                                &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                                &v[6], &v[7]);
    std::fclose(f);
    if (got != 8) return false;
    busy = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]);
    steal = static_cast<double>(v[7]);
    total = busy + static_cast<double>(v[3] + v[4] + v[7]);
    return true;
  }
  static double own_cpu_s() {
    double s = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
      rusage ru{};
      getrusage(who, &ru);
      s += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    }
    return s;
  }

  Clock::time_point t0_;
  double own0_ = 0.0;
  double busy0_ = 0.0, steal0_ = 0.0, total0_ = 0.0;
  bool ok_ = false;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  std::string model = "unknown";
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* p = std::strchr(line, ':');
    if (p != nullptr) {
      ++p;
      while (*p == ' ' || *p == '\t') ++p;
      model = p;
      while (!model.empty() && (model.back() == '\n' || model.back() == '\r')) {
        model.pop_back();
      }
    }
    break;
  }
  std::fclose(f);
  return model;
}

void print_provenance(const Options& opt) {
  const gsknn::CpuFeatures& f = gsknn::cpu_features();
  const char* simd = f.avx512f ? "avx512" : f.avx2 ? "avx2" : "scalar";
  const gsknn::CacheInfo& c = gsknn::cache_info();
  std::printf(
      "# provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%u,\"simd\":\"%s\",\"cpu\":\"%s\","
      "\"l2_bytes\":%zu,\"l3_bytes\":%zu,\"pmu\":%s,\"git\":\"%s\","
      "\"compiler\":\"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      simd, json_escape(cpu_model()).c_str(), c.l2, c.l3,
      gsknn::telemetry::pmu_available() ? "true" : "false",
      json_escape(GSKNN_GIT_DESCRIBE).c_str(), json_escape(__VERSION__).c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_steady|allnn|kernel> --seed <n> "
               "--seconds <s> --trace <0|1> [--inject-slowdown <frac>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      opt.trace = std::strtol(v, &end, 10) != 0;
    } else if (a == "--inject-slowdown") {
      opt.inject = std::strtod(v, &end);
    } else {
      usage(("unknown flag " + a).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) usage("bad --seconds");
  if (!(opt.inject >= 0.0) || opt.inject > 1.0) usage("bad --inject-slowdown");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  print_provenance(opt);
  std::fflush(stdout);

  Report rep;
  const HostLoad host;
  try {
    if (opt.workload == "serve_steady") {
      run_serve(opt, rep);
    } else if (opt.workload == "allnn") {
      run_allnn(opt, rep);
    } else if (opt.workload == "kernel") {
      run_kernel(opt, rep);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace) rep.set("process.peak_rss_mb", peak_rss_mb(), "MB");

  for (const std::string& line : rep.notes) std::printf("# %s\n", line.c_str());
  std::printf("# peak_rss_mb %.1f\n", peak_rss_mb());
  std::printf("# host %s\n", host.json().c_str());
  std::printf("# error_rate %.6g (%llu failed of %llu attempted, %llu wrong)\n",
              rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                      static_cast<double>(rep.attempted)
                                : 0.0,
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.wrong));

  // The metrics this workload measured; run.py selects and completes the
  // set BENCHMARK.json declares for this --trace.
  std::string body;
  for (const Report::Entry& e : rep.metrics) {
    if (!std::isfinite(e.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", e.name.c_str());
      return 1;
    }
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g", e.value);
    if (!body.empty()) body += ", ";
    body.append("\"").append(e.name).append("\": {\"value\": ").append(v);
    body.append(", \"unit\": \"").append(e.unit).append("\"}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              rep.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), body.c_str());
  std::fflush(stdout);
  return rep.wrong == 0 ? 0 : 1;
}
