#ifndef EXPBSI_BENCH_BENCH_UTIL_H_
#define EXPBSI_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <stdlib.h>  // mkdtemp

#include "bsi/bsi.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "reference/ref_column.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"

namespace expbsi {
namespace bench_util {

// Benchmarks run at a laptop-scale fraction of the paper's production
// deployment; the env var below scales the synthetic user base so the same
// binaries can run larger reproductions on bigger machines.
inline uint64_t ScaledUsers(uint64_t default_users) {
  const char* env = std::getenv("EXPBSI_BENCH_USERS");
  if (env == nullptr) return default_users;
  const uint64_t v = std::strtoull(env, nullptr, 10);
  return v > 0 ? v : default_users;
}

inline std::string HumanBytes(double bytes) {
  char buf[64];
  if (bytes >= 1e12) {
    std::snprintf(buf, sizeof(buf), "%.2f TB", bytes / 1e12);
  } else if (bytes >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", bytes / 1e9);
  } else if (bytes >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f MB", bytes / 1e6);
  } else if (bytes >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f KB", bytes / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

inline std::string HumanCount(double n) {
  char buf[64];
  if (n >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f billion", n / 1e9);
  } else if (n >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f million", n / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", n);
  }
  return buf;
}

// Differential-oracle pre-flight: before a benchmark times anything, the
// optimized path is checked against the scalar reference (src/reference/)
// on a small workload. A benchmark that produces wrong numbers fast is
// worse than useless, so a mismatch aborts the binary. Costs well under a
// second. Set EXPBSI_PREFLIGHT_ONLY=1 to exit right after the check (CI
// uses this as a standalone correctness gate).
inline void OraclePreflight() {
  // Raw BSI arithmetic vs the scalar column.
  Rng rng(20260805);
  std::vector<std::pair<uint32_t, uint64_t>> pairs;
  for (uint32_t pos = 0; pos < 40000; ++pos) {
    if (rng.NextBernoulli(0.35)) {
      pairs.emplace_back(pos, 1 + rng.NextBounded(21600));
    }
  }
  const Bsi bsi_col = Bsi::FromPairs(pairs);
  const RefColumn ref_col = RefColumn::FromPairs(pairs);
  bool ok = bsi_col.Sum() == ref_col.Sum() &&
            bsi_col.RangeLe(5000).ToVector() == ref_col.RangeLe(5000) &&
            bsi_col.Quantile(0.9) == ref_col.Quantile(0.9);

  // Scorecard kernel vs the scalar engine (bit-for-bit).
  DatasetConfig config;
  config.num_users = 300;
  config.num_segments = 3;
  config.num_days = 3;
  config.seed = 97;
  ExperimentConfig experiment;
  experiment.strategy_ids = {800, 801};
  experiment.arm_effects = {1.0, 1.1};
  MetricConfig metric;
  metric.metric_id = 11;
  metric.value_range = 21600;
  const Dataset dataset =
      GenerateDataset(config, {experiment}, {metric}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const RefExperimentData ref = BuildRefExperimentData(dataset);
  for (const uint64_t strategy : {800, 801}) {
    const BucketValues got =
        ComputeStrategyMetricBsi(bsi, strategy, 11, 0, 2);
    const BucketValues want = RefComputeStrategyMetric(ref, strategy, 11, 0, 2);
    ok = ok && got.sums == want.sums && got.counts == want.counts;
  }

  if (!ok) {
    std::fprintf(stderr,
                 "[preflight] FAILED: optimized engine disagrees with the "
                 "scalar oracle; benchmark numbers would be meaningless. "
                 "Run the differential tests for a minimal repro.\n");
    std::abort();
  }
  std::printf("[preflight] oracle check passed (BSI == scalar reference)\n");
  const char* only = std::getenv("EXPBSI_PREFLIGHT_ONLY");
  if (only != nullptr && only[0] != '\0' && std::string(only) != "0") {
    std::exit(0);
  }
}

// Registry scrape at bench exit (docs/OBSERVABILITY.md "Bench
// integration"). Emits one `REGISTRYJSON {...}` line that
// scripts/run_benches.sh folds into the collected BENCH file alongside the
// timing measurements, and -- when EXPBSI_PROM_DIR is set -- writes the
// Prometheus text exposition to $EXPBSI_PROM_DIR/<bench>.prom for
// scripts/check_metrics.py to validate. Under EXPBSI_NO_METRICS the dump
// degenerates to the compiled-out marker, which the collector records
// verbatim, so the committed BENCH pair documents both modes.
inline void EmitRegistrySnapshot(const char* bench_name) {
  std::printf("REGISTRYJSON {\"bench\": \"%s\", \"registry\": %s}\n",
              bench_name,
              obs::MetricsRegistry::Global().RenderJson().c_str());
  const char* dir = std::getenv("EXPBSI_PROM_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  const std::string path = std::string(dir) + "/" + bench_name + ".prom";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const std::string text = obs::MetricsRegistry::Global().RenderPrometheus();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

// A directory private to one bench run: created with mkdtemp under $TMPDIR
// (default /tmp) and removed, with everything in it, when the object goes
// out of scope, so concurrent runs never write into each other's files.
// path() is empty when the directory could not be created.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix) {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern = std::string(tmp != nullptr && tmp[0] != '\0'
                                          ? tmp
                                          : "/tmp") +
                          "/" + prefix + "XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = std::move(pattern);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline void PrintBanner(const char* experiment, const char* paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper shape: %s\n", paper_shape);
  std::printf("==============================================================\n");
}

}  // namespace bench_util
}  // namespace expbsi

#endif  // EXPBSI_BENCH_BENCH_UTIL_H_
