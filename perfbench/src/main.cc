// expbsi_perfbench: one run of one benchmark workload.
//
//   expbsi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir <dir>] [--commit <id>]
//
// Prints a STAMP line (host and build facts), with --trace 0 a TAIL line
// (which percentile op_tail_ms is, over how many samples and windows), and
// as its last line the result object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, measured with the
// benchmark's own tracing off; --trace 1 makes the separate traced run and
// reports the per-layer metrics. perfbench/run.py builds this binary and
// forwards the arguments; see BENCHMARK.json for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: expbsi_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--commit <id>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (seconds <= 0.0) Usage("--seconds must be positive");
  if (trace != 0 && trace != 1) Usage("--trace must be 0 or 1");
  std::unique_ptr<Workload> workload = MakeWorkload(workload_name, work_dir);
  if (workload == nullptr) Usage(("unknown workload " + workload_name).c_str());
  // Set-up is repeated and its median reported, so one slow repetition
  // does not move setup_s: at least kMinSetups times and until
  // kSetupSeconds have passed (short set-ups repeat more, up to
  // kMaxSetups). The traced run reports no set-up time and builds once.
  constexpr int kMinSetups = 5;
  constexpr int kMaxSetups = 20;
  constexpr double kSetupSeconds = 2.0;
  const int min_setups = trace == 0 ? kMinSetups : 1;
  const int max_setups = trace == 0 ? kMaxSetups : 1;

  std::printf("STAMP {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"commit\": \"%s\", \"host\": %s}\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace, commit.c_str(), HostStampJson().c_str());
  std::fflush(stdout);

  std::vector<double> setup_s;
  const double setups_t0 = NowSeconds();
  for (int k = 0; k < max_setups; ++k) {
    if (k >= min_setups && NowSeconds() - setups_t0 >= kSetupSeconds) break;
    const double t0 = NowSeconds();
    workload->Setup(seed);
    setup_s.push_back(NowSeconds() - t0);
    std::fprintf(stderr, "perfbench: set-up %d took %.3f s\n", k + 1,
                 setup_s.back());
  }
  const double verify_t0 = NowSeconds();
  const int wrong_before_timing = workload->Verify();
  std::fprintf(stderr, "perfbench: oracle checks took %.3f s\n",
               NowSeconds() - verify_t0);
  if (wrong_before_timing > 0) {
    std::fprintf(stderr, "perfbench: %d answers differ from the oracle "
                 "before timing\n", wrong_before_timing);
  }

  MetricSink metrics;
  Outcome outcome;
  if (trace == 0) {
    outcome = workload->Run(seconds);
    const Tail tail = TailOf(outcome.latencies_ms);
    const double ops = std::max<double>(outcome.latencies_ms.size(), 1.0);
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("op_p50_ms", Median(outcome.latencies_ms), "ms");
    metrics.Add("op_tail_ms", tail.value, "ms");
    metrics.Add("throughput_per_s",
                outcome.work_items / std::max(outcome.busy_seconds, 1e-9),
                "1/s");
    metrics.Add("cpu_ms_per_op", outcome.cpu_seconds * 1e3 / ops, "ms");
    metrics.Add("peak_rss_mb", ReadProcessUsage().peak_rss_mb, "MB");
    metrics.Add("stored_bytes_per_input_byte",
                workload->StoredBytesPerInputByte(), "ratio");
    std::printf("TAIL {\"percentile\": %g, \"samples\": %zu, "
                "\"windows\": %zu, \"beyond\": %zu, \"p99\": %.6g, "
                "\"p99.9\": %.6g}\n",
                tail.percentile, tail.samples, tail.windows, tail.beyond,
                Quantile(outcome.latencies_ms, 0.99),
                Quantile(outcome.latencies_ms, 0.999));
    if (tail.beyond < 10 * tail.windows) {
      std::fprintf(stderr, "perfbench: only %zu samples beyond the tail "
                   "percentile in %zu windows\n", tail.beyond, tail.windows);
    }
  } else {
    outcome = workload->RunTraced(seconds, &metrics);
  }
  const uint64_t attempted = outcome.attempted + 1;  // + the oracle pass
  const uint64_t failed =
      outcome.failed + (wrong_before_timing > 0 ? 1 : 0);
  if (trace == 1) {
    metrics.Add("error_ratio",
                static_cast<double>(failed) / static_cast<double>(attempted),
                "ratio");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
