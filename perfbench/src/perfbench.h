#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

// Shared pieces of the repository benchmark: process measurements, sample
// statistics, registry deltas, the metric sink that becomes the result
// line, run-private directories, and the per-layer replay every traced run
// performs on its workload's own inputs.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "engine/experiment_data.h"
#include "obs/metrics.h"
#include "stats/bucket_stats.h"
#include "storage/bsi_store.h"
#include "wal/wal.h"

namespace perfbench {

using expbsi::BucketValues;
using expbsi::Date;

// ---- process --------------------------------------------------------------

double NowSeconds();  // steady clock
struct ProcessUsage {
  double cpu_seconds = 0.0;  // user + system, all threads (getrusage)
  double peak_rss_mb = 0.0;
};
ProcessUsage ReadProcessUsage();
int NumCpus();

// ---- sample statistics ----------------------------------------------------

// Linear interpolation between order statistics; q in [0, 1].
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
// The tail every workload reports: the 90th percentile of the run's
// latencies. One fixed percentile keeps the metric's meaning the same
// across workloads and commits. The run's latencies, in the order the
// operations ran, are cut into consecutive windows of at least
// kTailWindowSamples (ten or more beyond the percentile in each); the tail
// is the median of the windows' percentiles, so a burst of host load that
// covers a few windows does not move it. A run shorter than one window
// has one window.
inline constexpr double kTailPercentile = 90.0;
inline constexpr size_t kTailWindowSamples = 100;
struct Tail {
  double value = 0.0;
  double percentile = kTailPercentile;
  size_t samples = 0;
  size_t windows = 0;
  size_t beyond = 0;  // samples beyond their own window's percentile
};
Tail TailOf(const std::vector<double>& values);

// ---- registry deltas ------------------------------------------------------

// Counter and histogram movement of obs::MetricsRegistry::Global() between
// Begin() and End().
class RegistryWindow {
 public:
  void Begin();
  void End();
  uint64_t Counter(const std::string& name) const;
  uint64_t HistogramSum(const std::string& name) const;
  uint64_t HistogramCount(const std::string& name) const;

 private:
  expbsi::obs::MetricsSnapshot before_;
  expbsi::obs::MetricsSnapshot after_;
};

// ---- result line ----------------------------------------------------------

class MetricSink {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;  // 0 when absent
  // {"<name>": {"value": v, "unit": "u"}, ...} in insertion order.
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Host and build facts every result carries (printed as the STAMP line).
std::string HostStampJson();

// A directory private to this run, removed with everything in it when the
// object dies.
class RunDir {
 public:
  RunDir(const std::string& parent, const std::string& tag);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};
uint64_t DirectoryBytes(const std::string& dir);

// ---- queries and results --------------------------------------------------

struct Query {
  std::vector<uint64_t> strategies;
  std::vector<uint64_t> metrics;
  Date lo = 0;
  Date hi = 0;
};
using PairKey = std::pair<uint64_t, uint64_t>;
using PairResults = std::map<PairKey, BucketValues>;

// Value equality (==, not a tolerance): doubles built from the same integer
// sums must agree exactly.
bool SameValues(const BucketValues& a, const BucketValues& b);
bool SameResults(const PairResults& a, const PairResults& b);
// Byte equality of the two warehouses' serialized blobs.
bool SameWarehouse(const expbsi::ExperimentBsiData& a,
                   const expbsi::ExperimentBsiData& b);

// Raw size of the generated input: every expose / metric / dimension row
// as one fixed-width event (expbsi::kWalEventBytes).
uint64_t RawInputBytes(const expbsi::Dataset& dataset);

// ---- per-layer replay -----------------------------------------------------

// What a traced run replays through each layer's public functions. Every
// workload provides all of it from its own inputs, so every per-layer
// metric is measured on every workload.
struct ReplayInputs {
  const expbsi::ExperimentBsiData* data = nullptr;
  const expbsi::BsiStore* cold = nullptr;  // the warehouse blobs
  // Serving shape: node i serves node_stores[i] through a hot tier of
  // hot_capacity_bytes; segments route to placement->PrimaryOf(seg).
  const expbsi::Placement* placement = nullptr;
  std::vector<const expbsi::BsiStore*> node_stores;
  size_t hot_capacity_bytes = 0;
  uint16_t probe_port = 0;  // a live node server for connect / ping
  std::vector<Query> queries;
  // Served answers, one per query, that the replay must reproduce exactly.
  std::vector<PairResults> served;
  // The same units grouped by hashed bucket id, for GroupSumByBucket (the
  // daily batch's grouping); `data` itself when it is already bucketed.
  const expbsi::ExperimentBsiData* bucketed = nullptr;
  // Event batches of the size IngestStore::Ingest is given; the WAL append
  // and the delta merge are replayed on them in order, into an empty store.
  std::vector<std::vector<expbsi::WalEvent>> batches;
  // When set, the replayed merge of every batch must equal it.
  const expbsi::ExperimentBsiData* merged = nullptr;
  std::string scratch_dir;
};

// Per query and node: where the replayed segment work went (ms).
struct NodeReplay {
  double fetch_ms = 0.0;
  double decode_ms = 0.0;
  double mask_ms = 0.0;
  double sum_ms = 0.0;
  double total_ms = 0.0;  // the whole replayed segment loop
};
struct ReplayProfile {
  std::vector<std::vector<NodeReplay>> per_query;  // [query][node]
  double wal_append_ms = 0.0;  // all replayed WalWriter::Append calls
  double merge_ms = 0.0;       // all replayed delta builds + MergeInto
};

// Adds every replay metric to `out`; returns the number of replayed
// answers that differ from `served` (or from the direct engine, or from
// `merged`).
int RunLayerReplay(const ReplayInputs& in, MetricSink* out,
                   ReplayProfile* profile);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
