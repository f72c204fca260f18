// The benchmark workloads. Each one drives the program only through its
// public entry points, generates every input from the seed, checks the
// answers it gets, and reports one kind of operation:
//
//   scorecard_wide     Coordinator::QueryBsi, closed loop, one client, a
//                      mix of 2-4 strategies x 2-6 metrics x 1-14 days;
//                      the hot tiers hold every node's slice. Kernel-bound.
//   ingest_checkpoint  IngestStore::Ingest of seeded event batches with a
//                      Checkpoint every kCheckpointEvery batches, one writer.
//   recover            IngestStore::Open (snapshot + WAL-tail replay) of a
//                      store built at set-up.
//   precompute_daily   the daily batch: PrecomputePipeline::RunBsi over
//                      every strategy x metric pair of a bucketed dataset,
//                      then BuildPreAggIndex per metric and
//                      ComputePreExperimentWithTree per pair.
//
// Product defaults hold throughout: replication factor 2, node traces on
// (want_trace), hedged reads off, an fsync per WAL record.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <random>

#include "cluster/adhoc_cluster.h"
#include "cluster/placement.h"
#include "cluster/precompute_pipeline.h"
#include "engine/preexperiment.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "net/coordinator.h"
#include "net/node_server.h"
#include "obs/trace.h"
#include "reference/ref_data.h"
#include "reference/ref_engine.h"
#include "wal/delta_builder.h"
#include "wal/event_stream.h"
#include "wal/ingest_store.h"
#include "workloads.h"

namespace perfbench {

using namespace expbsi;

namespace {

// ---- shared shapes ----------------------------------------------------------

constexpr Date kStart = 100;
constexpr int kDays = 14;
// Events per IngestStore::Ingest call, and per replayed WAL append / merge.
constexpr size_t kIngestBatchEvents = 2048;
constexpr size_t kReplayBatches = 32;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// The Table 5 shapes (dense binary A, sparse B, wide-range C) twice over,
// so a query can name up to six metrics without changing their mix.
std::vector<MetricConfig> ShapedMetrics(int copies) {
  std::vector<MetricConfig> out;
  for (int copy = 0; copy < copies; ++copy) {
    for (MetricConfig m : MakeTypicalMetricsABC()) {
      m.metric_id += static_cast<uint64_t>(10 * copy);
      out.push_back(m);
    }
  }
  return out;
}

uint64_t MetricId(int shape, int copy) {
  return MakeTypicalMetricsABC()[shape].metric_id +
         static_cast<uint64_t>(10 * copy);
}

ExperimentConfig FourArms() {
  ExperimentConfig exp;
  exp.strategy_ids = {101, 102, 103, 104};
  exp.arm_effects = {1.0, 1.03, 0.98, 1.05};
  exp.traffic_salt = 7;
  return exp;
}

// The daily batch's experiment: one control and one treatment arm.
ExperimentConfig ControlTreatment() {
  ExperimentConfig exp;
  exp.strategy_ids = {201, 202};
  exp.arm_effects = {1.0, 1.04};
  exp.traffic_salt = 11;
  return exp;
}

// Segment `seg` of `d` as a one-segment dataset, each row kind cut to
// `max_rows` (0 = all): the scalar oracle and the WAL replay run on it.
Dataset OneSegment(const Dataset& d, int seg, size_t max_rows) {
  Dataset out;
  out.config = d.config;
  out.config.num_segments = 1;
  out.experiments = d.experiments;
  out.metrics = d.metrics;
  out.dimensions = d.dimensions;
  out.segments.push_back(d.segments[seg]);
  if (static_cast<size_t>(seg) < d.users_by_engagement.size()) {
    out.users_by_engagement.push_back(d.users_by_engagement[seg]);
  }
  if (max_rows > 0) {
    SegmentData& s = out.segments.back();
    if (s.expose.size() > max_rows) s.expose.resize(max_rows);
    if (s.metrics.size() > max_rows) s.metrics.resize(max_rows);
    if (s.dimensions.size() > max_rows) s.dimensions.resize(max_rows);
  }
  return out;
}

std::vector<std::vector<WalEvent>> SampleBatches(const Dataset& d, int seg) {
  std::vector<std::vector<WalEvent>> batches = BatchWalEvents(
      MakeWalEventStream(OneSegment(d, seg, 8 * kIngestBatchEvents)),
      kIngestBatchEvents);
  if (batches.size() > kReplayBatches) batches.resize(kReplayBatches);
  return batches;
}

// A one-segment sample grouped by its units' hashed bucket ids, the way
// the daily batch groups a bucketed dataset, so the replay's
// GroupSumByBucket runs on the workload's own rows.
ExperimentBsiData BucketedSample(Dataset sample) {
  sample.config.bucket_equals_segment = false;
  return BuildExperimentBsiData(sample, true);
}

// Probe queries for workloads that serve none: every strategy over the
// first two metrics for the whole range, and one point query.
std::vector<Query> ProbeQueries(const ExperimentConfig& exp,
                                const std::vector<MetricConfig>& metrics,
                                Date lo, Date hi) {
  Query wide;
  wide.strategies = exp.strategy_ids;
  for (size_t i = 0; i < metrics.size() && i < 2; ++i) {
    wide.metrics.push_back(metrics[i].metric_id);
  }
  wide.lo = lo;
  wide.hi = hi;
  Query point;
  point.strategies = {exp.strategy_ids.front()};
  point.metrics = {metrics.front().metric_id};
  point.lo = point.hi = hi;
  return {wide, point};
}

// ---- per-layer bookkeeping -------------------------------------------------

// Wall time of the traced operations and the part of it attributed to each
// layer; the remainder is reported as unattributed.
struct LayerTally {
  double wall_ms = 0.0;
  std::map<std::string, double> ms;
  void Add(const std::string& layer, double v) { ms[layer] += std::max(v, 0.0); }
};

void AddShares(const LayerTally& t, MetricSink* out) {
  static const char* kShares[] = {
      "net",          "wire",           "cluster",
      "storage",      "bsi",            "wal",
      "engine",       "common",         "cluster.merge",
      "storage.fetch", "storage.snapshot_write", "storage.snapshot_load",
      "bsi.decode",   "bsi.mask_build", "bsi.sum_under_mask",
      "bsi.merge_append", "wal.append", "wal.replay"};
  const double wall = std::max(t.wall_ms, 1e-12);
  double attributed = 0.0;
  for (const char* name : kShares) {
    const auto it = t.ms.find(name);
    const double v = it == t.ms.end() ? 0.0 : it->second;
    const std::string key(name);
    if (key.find('.') == std::string::npos) attributed += v;
    out->Add(key.find('.') == std::string::npos ? key + ".share"
                                                : key + "_share",
             v / wall, "ratio");
  }
  out->Add("trace.unattributed_ratio",
           std::max(0.0, t.wall_ms - attributed) / wall, "ratio");
}

// Registry movement per operation over one traced pass.
void AddCounterMetrics(const RegistryWindow& w, double ops, MetricSink* out) {
  ops = std::max(ops, 1.0);
  const double hits = w.Counter("tier.hot_hits");
  const double cold = w.Counter("tier.cold_reads");
  out->Add("net.rpcs_per_op", w.Counter("node.queries") / ops, "count");
  out->Add("net.bytes_per_op",
           (w.Counter("net.bytes_sent") + w.Counter("net.bytes_received")) /
               ops,
           "bytes");
  out->Add("storage.tier_hit_ratio",
           hits + cold > 0 ? hits / (hits + cold) : 0.0, "ratio");
  out->Add("storage.bytes_from_cold_per_op",
           w.Counter("tier.bytes_from_cold") / ops, "bytes");
  out->Add("storage.evictions_per_op", w.Counter("tier.evictions") / ops,
           "count");
  out->Add("storage.fingerprint_verifications_per_op",
           w.Counter("tier.fingerprint_verifications") / ops, "count");
  out->Add("bsi.slices_touched_per_op",
           w.Counter("kernel.sum_slices_touched") / ops, "count");
  out->Add("bsi.csa_words_per_op",
           w.Counter("kernel.csa_words_processed") / ops, "count");
  out->Add("bsi.merge_appends_per_op",
           (w.Counter("kernel.merge_appends") +
            w.Counter("kernel.merge_append_overlaps")) / ops,
           "count");
  out->Add("wal.fsyncs_per_op", w.Counter("wal.fsyncs") / ops, "count");
  out->Add("common.arena_allocations_per_op",
           w.Counter("arena.buffer_allocations") / ops, "count");
}

// Counts that must repeat exactly when a single client repeats the same
// operations; the ones that do not are named on stderr and counted.
void AddRepeatCheck(const RegistryWindow& a, const RegistryWindow& b,
                    MetricSink* out) {
  int differ = 0;
  for (const char* name :
       {"tier.cold_reads", "wal.fsyncs", "kernel.sum_slices_touched",
        "kernel.csa_words_processed", "net.bytes_sent"}) {
    if (a.Counter(name) != b.Counter(name)) {
      ++differ;
      std::fprintf(stderr,
                   "perfbench: count %s did not repeat: %llu then %llu\n",
                   name, static_cast<unsigned long long>(a.Counter(name)),
                   static_cast<unsigned long long>(b.Counter(name)));
    }
  }
  out->Add("trace.nonrepeating_counts", differ, "count");
}

void AddTracedTimes(const std::vector<double>& untraced_ms,
                    const std::vector<double>& traced_ms, MetricSink* out) {
  out->Add("trace.op_p50_ms", Median(traced_ms), "ms");
  out->Add("trace_overhead_ratio",
           Median(traced_ms) / std::max(Median(untraced_ms), 1e-12),
           "ratio");
}

std::vector<obs::QueryTrace::Span> SpansNamed(
    const std::vector<obs::QueryTrace::Span>& spans, const std::string& name) {
  std::vector<obs::QueryTrace::Span> out;
  for (const auto& s : spans) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

double SpanMs(const obs::QueryTrace::Span& s) { return s.duration_ns / 1e6; }

// Folds one served query's trace along its critical path: coordinator
// work outside the waves and the post-join accounting are cluster; per
// wave, the slowest node's server time is split into its segment work --
// divided by that node's replay profile into storage, bsi and cluster --
// and node-side bookkeeping (cluster). Of the rest of the wave, one RPC's
// replayed codec time is wire and one replayed connect plus round trip is
// net; what the replay did not measure (thread spawn, scheduling, payload
// transfer) stays unattributed.
void FoldServedQuery(const std::vector<obs::QueryTrace::Span>& spans,
                     double wall_ms, const std::vector<NodeReplay>& nodes,
                     double wire_ms, double net_ms, LayerTally* tally) {
  tally->wall_ms += wall_ms;
  const obs::QueryTrace::Span* root = nullptr;
  for (const auto& span : spans) {
    if (span.parent_id == 0) root = &span;
  }
  if (root == nullptr) return;
  double coordinator_ms = SpanMs(*root);
  for (const auto& wave : spans) {
    if (wave.name != "wave" || wave.parent_id != root->id) continue;
    coordinator_ms -= SpanMs(wave);
    double accounting_ms = 0.0, crit_server_ms = 0.0, crit_exec_ms = 0.0;
    int crit_node = -1;
    for (const auto& rpc : spans) {
      if (rpc.name != "node_rpc" || rpc.parent_id != wave.id) continue;
      accounting_ms += SpanMs(rpc);
      int node = -1;
      for (const auto& [k, v] : rpc.attrs) {
        if (k == "node") node = static_cast<int>(v);
      }
      for (const auto& nq : spans) {
        if (nq.name != "node_query" || nq.parent_id != rpc.id) continue;
        if (SpanMs(nq) <= crit_server_ms) continue;
        crit_server_ms = SpanMs(nq);
        crit_node = node;
        crit_exec_ms = 0.0;
        for (const auto& seg : spans) {
          if (seg.name == "segment_execute" && seg.parent_id == nq.id) {
            crit_exec_ms += SpanMs(seg);
          }
        }
      }
    }
    tally->Add("cluster", accounting_ms);
    tally->Add("cluster.merge", accounting_ms);
    const double transport_ms =
        std::max(SpanMs(wave) - accounting_ms - crit_server_ms, 0.0);
    const double codec_ms = std::min(wire_ms, transport_ms);
    tally->Add("wire", codec_ms);
    tally->Add("net", std::min(net_ms, transport_ms - codec_ms));
    tally->Add("cluster", crit_server_ms - crit_exec_ms);
    if (crit_node < 0 || crit_node >= static_cast<int>(nodes.size()) ||
        nodes[crit_node].total_ms <= 0.0) {
      tally->Add("cluster", crit_exec_ms);
      continue;
    }
    const NodeReplay& nr = nodes[crit_node];
    const double scale = crit_exec_ms / nr.total_ms;
    tally->Add("storage", nr.fetch_ms * scale);
    tally->Add("storage.fetch", nr.fetch_ms * scale);
    tally->Add("bsi", (nr.decode_ms + nr.mask_ms + nr.sum_ms) * scale);
    tally->Add("bsi.decode", nr.decode_ms * scale);
    tally->Add("bsi.mask_build", nr.mask_ms * scale);
    tally->Add("bsi.sum_under_mask", nr.sum_ms * scale);
    tally->Add("cluster", (nr.total_ms - nr.fetch_ms - nr.decode_ms -
                           nr.mask_ms - nr.sum_ms) * scale);
  }
  tally->Add("cluster", coordinator_ms);
  tally->Add("cluster.merge", coordinator_ms);
}

// ---- scorecard workloads ---------------------------------------------------

constexpr uint64_t kScorecardUsers = 1u << 16;
constexpr int kScorecardSegments = 16;
constexpr int kNodes = 3;
constexpr int kReplication = 2;

class ScorecardWorkload : public Workload {
 public:
  explicit ScorecardWorkload(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}
  ~ScorecardWorkload() override { StopFleet(); }

  void Setup(uint64_t seed) override {
    // Release the previous set-up before building the next, so each
    // repetition starts from the same footprint.
    StopFleet();
    bsi_.reset();
    cold_.reset();
    sample_ = Dataset();
    DatasetConfig config;
    config.num_users = kScorecardUsers;
    config.num_segments = kScorecardSegments;
    config.num_days = kDays;
    config.start_date = kStart;
    config.seed = seed;
    {
      Dataset dataset =
          GenerateDataset(config, {FourArms()}, ShapedMetrics(2), {});
      raw_input_bytes_ = RawInputBytes(dataset);
      sample_segment_ = static_cast<int>(seed % kScorecardSegments);
      sample_ = OneSegment(dataset, sample_segment_, 0);
      bsi_ = std::make_unique<ExperimentBsiData>(
          BuildExperimentBsiDataParallel(dataset, true, NumCpus()));
    }
    cold_ = std::make_unique<BsiStore>(BuildColdStore(*bsi_));
    placement_ = std::make_unique<Placement>(kNodes, kScorecardSegments,
                                             kReplication);
    for (int n = 0; n < kNodes; ++n) {
      const std::vector<uint32_t> owned = placement_->SegmentsOf(n);
      auto store = std::make_unique<BsiStore>();
      cold_->ForEachEntry([&](const BsiStoreKey& key, const std::string& b,
                              uint64_t fp) {
        if (std::find(owned.begin(), owned.end(), key.segment) !=
            owned.end()) {
          store->PutRecovered(key, b, fp);
        }
      });
      node_stores_.push_back(std::move(store));
    }
    // Default node options: the hot tier (256 MB) holds the whole slice.
    net::CoordinatorOptions options;
    for (int n = 0; n < kNodes; ++n) {
      net::NodeServerOptions node_options;
      node_options.node_id = n;
      node_options.owned_segments = placement_->SegmentsOf(n);
      auto node = std::make_unique<net::NodeServer>(node_stores_[n].get(),
                                                    node_options);
      if (!node->Start().ok()) Die("node server failed to start");
      options.node_ports.push_back(node->port());
      nodes_.push_back(std::move(node));
    }
    options.num_segments = kScorecardSegments;
    options.replication_factor = kReplication;
    coordinator_ = std::make_unique<net::Coordinator>(options);
    BuildQueries(seed);
    // Warm-up: every distinct query once, so the hot tiers and the
    // allocator reach the state the timed loop sees.
    for (const Query& q : queries_) {
      if (!Serve(q).ok()) Die("warm-up query failed");
    }
  }

  int Verify() override {
    // Every served pair against the direct engine over all segments and
    // the scalar oracle on the sampled segment (both memoized per pair and
    // date range, since queries of the mix share them).
    const RefExperimentData ref = BuildRefExperimentData(sample_);
    std::map<std::tuple<uint64_t, uint64_t, Date, Date>,
             std::pair<BucketValues, BucketValues>>
        oracle;
    int wrong = 0;
    expected_.clear();
    for (const Query& q : queries_) {
      Result<AdhocCluster::QueryStats> r = Serve(q);
      if (!r.ok() || !r.value().degraded.lost_segments.empty()) {
        ++wrong;
        expected_.emplace_back();
        continue;
      }
      for (const auto& [pair, values] : r.value().results) {
        const auto key = std::make_tuple(pair.first, pair.second, q.lo, q.hi);
        auto it = oracle.find(key);
        if (it == oracle.end()) {
          it = oracle
                   .emplace(key, std::make_pair(
                                     ComputeStrategyMetricBsi(
                                         *bsi_, pair.first, pair.second,
                                         q.lo, q.hi),
                                     RefComputeStrategyMetric(
                                         ref, pair.first, pair.second, q.lo,
                                         q.hi)))
                   .first;
        }
        const auto& [direct, scalar] = it->second;
        if (!SameValues(values, direct) ||
            scalar.sums[0] != values.sums[sample_segment_] ||
            scalar.counts[0] != values.counts[sample_segment_]) {
          ++wrong;
        }
      }
      expected_.push_back(r.value().results);
    }
    return wrong;
  }

  // One client: it sends the next query as soon as the last returns.
  Outcome Run(double seconds) override {
    Outcome outcome;
    const ProcessUsage u0 = ReadProcessUsage();
    const double start = NowSeconds();
    for (size_t op = 0; NowSeconds() < start + seconds; ++op) {
      const size_t qi = order_[op % order_.size()];
      const double sent = NowSeconds();
      Result<AdhocCluster::QueryStats> r = Serve(queries_[qi]);
      const double ms = (NowSeconds() - sent) * 1e3;
      ++outcome.attempted;
      if (!SampledCheck(op, qi, r)) {
        ++outcome.failed;
        continue;
      }
      outcome.latencies_ms.push_back(ms);
    }
    outcome.busy_seconds = NowSeconds() - start;
    outcome.cpu_seconds = ReadProcessUsage().cpu_seconds - u0.cpu_seconds;
    outcome.work_items = static_cast<double>(outcome.latencies_ms.size());
    return outcome;
  }

  Outcome RunTraced(double seconds, MetricSink* out) override {
    (void)seconds;
    // The traced sequence: two rounds of the query mix.
    std::vector<size_t> seq;
    for (size_t i = 0; i < 2 * order_.size(); ++i) {
      seq.push_back(order_[i % order_.size()]);
    }

    Outcome outcome;
    std::vector<double> untraced_ms;
    // Untraced reference for the overhead ratio: the same sequence, no
    // benchmark spans and no registry scrapes.
    for (size_t qi : seq) {
      const double t0 = NowSeconds();
      Result<AdhocCluster::QueryStats> r = Serve(queries_[qi]);
      untraced_ms.push_back((NowSeconds() - t0) * 1e3);
      ++outcome.attempted;
      if (!r.ok()) ++outcome.failed;
    }

    struct Served {
      size_t query = 0;
      double wall_ms = 0.0;
      std::vector<obs::QueryTrace::Span> spans;
    };
    std::vector<Served> traced;
    std::vector<double> traced_ms;
    RegistryWindow pass[2];
    for (int p = 0; p < 2; ++p) {
      pass[p].Begin();
      for (size_t qi : seq) {
        const double t0 = NowSeconds();
        Result<AdhocCluster::QueryStats> r = Serve(queries_[qi]);
        const double wall_ms = (NowSeconds() - t0) * 1e3;
        ++outcome.attempted;
        if (!r.ok() || !SameResults(r.value().results, expected_[qi])) {
          ++outcome.failed;
          continue;
        }
        if (p == 0) {
          traced_ms.push_back(wall_ms);
          traced.push_back({qi, wall_ms, r.value().trace->spans()});
        }
      }
      pass[p].End();
    }
    AddCounterMetrics(pass[0], static_cast<double>(seq.size()), out);
    AddRepeatCheck(pass[0], pass[1], out);
    AddTracedTimes(untraced_ms, traced_ms, out);

    // Direct replay of every distinct traced query through the layers.
    std::vector<size_t> distinct(seq.begin(), seq.end());
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::map<size_t, size_t> replay_index;
    RunDir scratch(work_dir_, "replay");
    ReplayInputs in;
    in.data = bsi_.get();
    in.cold = cold_.get();
    in.placement = placement_.get();
    for (const auto& store : node_stores_) in.node_stores.push_back(store.get());
    in.hot_capacity_bytes = net::NodeServerOptions{}.hot_capacity_bytes;
    in.probe_port = nodes_[0]->port();
    for (size_t qi : distinct) {
      replay_index[qi] = in.queries.size();
      in.queries.push_back(queries_[qi]);
      in.served.push_back(expected_[qi]);
    }
    const ExperimentBsiData bucketed = BucketedSample(sample_);
    in.bucketed = &bucketed;
    in.batches = SampleBatches(sample_, 0);
    in.scratch_dir = scratch.path();
    ReplayProfile profile;
    const int replay_wrong = RunLayerReplay(in, out, &profile);
    outcome.attempted += in.queries.size();
    outcome.failed += static_cast<uint64_t>(replay_wrong);

    const double wire_ms =
        (out->Get("wire.encode_us") + out->Get("wire.decode_us")) / 1e3;
    const double net_ms =
        (out->Get("net.connect_us") + out->Get("net.transport_rtt_us")) / 1e3;
    LayerTally tally;
    for (const Served& s : traced) {
      FoldServedQuery(s.spans, s.wall_ms,
                      profile.per_query[replay_index[s.query]], wire_ms,
                      net_ms, &tally);
    }
    AddShares(tally, out);
    return outcome;
  }

  double StoredBytesPerInputByte() const override {
    double stored = 0.0;
    for (const auto& store : node_stores_) stored += store->TotalBytes();
    return stored / static_cast<double>(raw_input_bytes_);
  }

 private:
  Result<AdhocCluster::QueryStats> Serve(const Query& q) {
    return coordinator_->QueryBsi(q.strategies, q.metrics, q.lo, q.hi);
  }

  void StopFleet() {
    for (auto& node : nodes_) node->Stop();
    coordinator_.reset();
    nodes_.clear();
    node_stores_.clear();
  }

  void BuildQueries(uint64_t seed) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
    const std::vector<uint64_t> strategies = FourArms().strategy_ids;
    queries_.clear();
    // A fixed grid of (strategies, metrics, days) shapes; the seed picks
    // which strategies, which copy of each metric shape, and the dates, so
    // the work mix does not drift with the seed.
    static const int kShapes[][3] = {
        {2, 2, 1},  {3, 4, 7}, {4, 6, 14}, {2, 3, 14}, {3, 2, 3},  {4, 5, 1},
        {2, 6, 7},  {3, 3, 10}, {4, 2, 7}, {2, 4, 3},  {3, 6, 1},  {4, 3, 14},
        {2, 5, 10}, {3, 5, 14}, {4, 4, 3}, {2, 2, 7}};
    int i = 0;
    for (const auto& shape : kShapes) {
      Query q;
      std::vector<uint64_t> pool = strategies;
      std::shuffle(pool.begin(), pool.end(), rng);
      q.strategies.assign(pool.begin(), pool.begin() + shape[0]);
      std::sort(q.strategies.begin(), q.strategies.end());
      const int coin[3] = {static_cast<int>(rng() & 1),
                           static_cast<int>(rng() & 1),
                           static_cast<int>(rng() & 1)};
      for (int j = 0; j < shape[1]; ++j) {
        const int m = (i + j) % 3;
        q.metrics.push_back(MetricId(m, (j / 3 + coin[m]) % 2));
      }
      q.lo = kStart + static_cast<Date>(rng() % (kDays - shape[2] + 1));
      q.hi = q.lo + shape[2] - 1;
      queries_.push_back(q);
      ++i;
    }
    order_.resize(queries_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  // A seeded sample of answers is checked again while timing.
  bool SampledCheck(size_t op, size_t qi,
                    const Result<AdhocCluster::QueryStats>& r) const {
    if (!r.ok()) return false;
    if (op % 8 != 0) return true;
    return SameResults(r.value().results, expected_[qi]);
  }

  const std::string work_dir_;
  uint64_t raw_input_bytes_ = 1;
  int sample_segment_ = 0;
  Dataset sample_;
  std::unique_ptr<ExperimentBsiData> bsi_;
  std::unique_ptr<BsiStore> cold_;
  std::unique_ptr<Placement> placement_;
  std::vector<std::unique_ptr<BsiStore>> node_stores_;
  std::vector<std::unique_ptr<net::NodeServer>> nodes_;
  std::unique_ptr<net::Coordinator> coordinator_;
  std::vector<Query> queries_;
  std::vector<size_t> order_;
  std::vector<PairResults> expected_;
};

// ---- helpers shared by the non-serving workloads ---------------------------

// A node server over `cold`, for the replay's connect / ping probes.
class ProbeNode {
 public:
  explicit ProbeNode(const BsiStore* cold)
      : server_(cold, net::NodeServerOptions{}) {
    if (!server_.Start().ok()) Die("probe node failed to start");
  }
  ~ProbeNode() { server_.Stop(); }
  ProbeNode(const ProbeNode&) = delete;
  ProbeNode& operator=(const ProbeNode&) = delete;
  uint16_t port() const { return server_.port(); }

 private:
  net::NodeServer server_;
};

// The layer replay of a workload that serves no queries: `in` names the
// warehouse (data, bucketed) and the event batches; the rest -- one node
// over the whole warehouse, probe queries, scratch space -- is made here.
int ReplayWarehouse(ReplayInputs in, const ExperimentConfig& exp,
                    const std::vector<MetricConfig>& metrics,
                    const std::string& work_dir, MetricSink* out,
                    ReplayProfile* profile) {
  const BsiStore cold = BuildColdStore(*in.data);
  ProbeNode probe(&cold);
  RunDir scratch(work_dir, "replay");
  in.cold = &cold;
  in.node_stores = {&cold};
  in.hot_capacity_bytes = net::NodeServerOptions{}.hot_capacity_bytes;
  in.probe_port = probe.port();
  in.queries = ProbeQueries(exp, metrics, kStart, kStart + kDays - 1);
  in.scratch_dir = scratch.path();
  return RunLayerReplay(in, out, profile);
}

// ---- streaming ingest and recovery ----------------------------------------

constexpr uint64_t kIngestUsers = 1u << 14;
constexpr int kIngestSegments = 4;
constexpr int kIngestDays = 7;
constexpr size_t kCheckpointEvery = 16;

ExperimentConfig IngestExperiment() {
  ExperimentConfig exp;
  exp.strategy_ids = {801, 802};
  exp.arm_effects = {1.0, 1.05};
  exp.traffic_fraction = 0.9;
  return exp;
}

std::vector<MetricConfig> IngestMetrics() { return MakeTypicalMetricsABC(); }

struct IngestInputs {
  Dataset sample;  // segment 0, for the scalar oracle and GroupSumByBucket
  std::vector<std::vector<WalEvent>> batches;
  uint64_t events = 0;
  uint64_t raw_bytes = 0;
  IngestOptions options;
};

IngestInputs MakeIngestInputs(uint64_t seed) {
  DatasetConfig config;
  config.num_users = kIngestUsers;
  config.num_segments = kIngestSegments;
  config.num_days = kIngestDays;
  config.start_date = kStart;
  config.seed = seed;
  DimensionConfig dim;
  dim.dimension_id = 11;
  dim.cardinality = 8;
  const Dataset dataset =
      GenerateDataset(config, {IngestExperiment()}, IngestMetrics(), {dim});
  IngestInputs in;
  in.sample = OneSegment(dataset, 0, 0);
  const std::vector<WalEvent> stream = MakeWalEventStream(dataset);
  in.events = stream.size();
  in.raw_bytes = RawInputBytes(dataset);
  in.batches = BatchWalEvents(stream, kIngestBatchEvents);
  in.options.num_segments = kIngestSegments;
  in.options.bucket_equals_segment = true;
  return in;
}

// What one ingest round (IngestWorkload::Round) observed.
struct RoundResult {
  std::vector<double> ack_ms;
  double busy_s = 0.0;
  uint64_t stored_bytes = 0;
  std::unique_ptr<IngestStore> store;  // still open
};

class IngestWorkload : public Workload {
 public:
  explicit IngestWorkload(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  void Setup(uint64_t seed) override {
    in_ = IngestInputs();
    in_ = MakeIngestInputs(seed);
    // Warm-up: one checkpoint interval into a throwaway store.
    RunDir dir(work_dir_, "ingest-warm");
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(dir.Sub("wal"), dir.Sub("snap"), in_.options);
    if (!store.ok()) Die("ingest warm-up open failed");
    for (size_t b = 0; b < kCheckpointEvery && b < in_.batches.size(); ++b) {
      if (!store.value()->Ingest(in_.batches[b]).ok()) Die("warm-up ingest");
    }
    if (!store.value()->Checkpoint().ok()) Die("warm-up checkpoint");
  }

  int Verify() override {
    // A full round, then the reopened store must serialize bit-identically
    // to the live one, and answer like the scalar oracle on segment 0.
    RunDir dir(work_dir_, "ingest-verify");
    RoundResult round;
    if (!Round(dir, nullptr, &round) || Check(dir, round.store) != 0) return 1;
    const RefExperimentData ref = BuildRefExperimentData(in_.sample);
    const Date hi = kStart + kIngestDays - 1;
    int wrong = 0;
    for (uint64_t s : IngestExperiment().strategy_ids) {
      for (const MetricConfig& m : IngestMetrics()) {
        const BucketValues got = ComputeStrategyMetricBsi(
            round.store->data(), s, m.metric_id, kStart, hi);
        const BucketValues want =
            RefComputeStrategyMetric(ref, s, m.metric_id, kStart, hi);
        if (got.sums[0] != want.sums[0] || got.counts[0] != want.counts[0]) {
          ++wrong;
        }
      }
    }
    return wrong;
  }

  Outcome Run(double seconds) override {
    Outcome outcome;
    const ProcessUsage u0 = ReadProcessUsage();
    const double end = NowSeconds() + seconds;
    int rounds = 0;
    while (NowSeconds() < end || rounds == 0) {
      RunDir dir(work_dir_, "ingest");
      RoundResult round;
      ++rounds;
      outcome.attempted += in_.batches.size();
      if (!Round(dir, nullptr, &round)) {
        outcome.failed += in_.batches.size() - round.ack_ms.size();
      } else {
        outcome.work_items += static_cast<double>(in_.events);
      }
      outcome.latencies_ms.insert(outcome.latencies_ms.end(),
                                  round.ack_ms.begin(), round.ack_ms.end());
      outcome.busy_seconds += round.busy_s;
      stored_bytes_ = round.stored_bytes;
    }
    outcome.cpu_seconds = ReadProcessUsage().cpu_seconds - u0.cpu_seconds;
    return outcome;
  }

  Outcome RunTraced(double seconds, MetricSink* out) override {
    (void)seconds;
    // An untraced reference round, then two identical rounds under the
    // registry: the first traced by layer, the second kept open for the
    // reopen check and the replay.
    RunDir reference_dir(work_dir_, "ingest");
    RunDir traced_dir(work_dir_, "ingest");
    RunDir last_dir(work_dir_, "ingest");
    RoundResult reference, traced, last;
    LayerTally tally;
    RegistryWindow pass[2];
    Outcome outcome;
    outcome.attempted = 3 * in_.batches.size();
    bool ok = Round(reference_dir, nullptr, &reference);
    pass[0].Begin();
    ok = Round(traced_dir, &tally, &traced) && ok;
    pass[0].End();
    pass[1].Begin();
    ok = Round(last_dir, nullptr, &last) && ok;
    pass[1].End();
    if (!ok || Check(last_dir, last.store) != 0) {
      ++outcome.failed;
      return outcome;
    }
    const double ops = static_cast<double>(in_.batches.size());
    AddCounterMetrics(pass[0], ops, out);
    AddRepeatCheck(pass[0], pass[1], out);
    AddTracedTimes(reference.ack_ms, traced.ack_ms, out);
    // The replay appends and merges the round's own batches, in order,
    // into an empty log and store; the merged store must equal the live one.
    const ExperimentBsiData bucketed = BucketedSample(in_.sample);
    ReplayInputs in;
    in.data = &last.store->data();
    in.bucketed = &bucketed;
    in.batches = in_.batches;
    in.merged = &last.store->data();
    ReplayProfile profile;
    const int wrong = ReplayWarehouse(in, IngestExperiment(), IngestMetrics(),
                                      work_dir_, out, &profile);
    outcome.failed += static_cast<uint64_t>(wrong);
    // Ingest logs, then merges: each is charged the replay's time for the
    // same batches, within what the ingest spans took.
    const double ingest_ms = tally.ms["ingest"];
    const double wal_ms = std::min(profile.wal_append_ms, ingest_ms);
    const double merge_ms = std::min(profile.merge_ms, ingest_ms - wal_ms);
    tally.Add("wal", wal_ms);
    tally.Add("wal.append", wal_ms);
    tally.Add("bsi", merge_ms);
    tally.Add("bsi.merge_append", merge_ms);
    AddShares(tally, out);
    return outcome;
  }

  double StoredBytesPerInputByte() const override {
    return static_cast<double>(stored_bytes_) /
           static_cast<double>(in_.raw_bytes);
  }

 private:
  int Check(const RunDir& dir, std::unique_ptr<IngestStore>& store) {
    if (store == nullptr) return 1;
    const ExperimentBsiData live = store->data();
    store.reset();
    Result<std::unique_ptr<IngestStore>> reopened =
        IngestStore::Open(dir.Sub("wal"), dir.Sub("snap"), in_.options);
    if (!reopened.ok() || !SameWarehouse(reopened.value()->data(), live)) {
      return 1;
    }
    store = std::move(reopened).value();
    return 0;
  }

  // Ingests every batch into a fresh store under `dir`. With `tally`, each
  // operation runs under a trace and its spans are added up by layer.
  bool Round(const RunDir& dir, LayerTally* tally, RoundResult* out) {
    Result<std::unique_ptr<IngestStore>> opened =
        IngestStore::Open(dir.Sub("wal"), dir.Sub("snap"), in_.options);
    if (!opened.ok()) return false;
    std::unique_ptr<IngestStore> store = std::move(opened).value();
    auto timed = [&](const std::function<bool()>& op, bool ack) {
      std::unique_ptr<obs::QueryTrace> trace;
      if (tally != nullptr) trace = std::make_unique<obs::QueryTrace>("op");
      const double t0 = NowSeconds();
      bool ok;
      {
        obs::ScopedTrace scoped(trace.get());
        ok = op();
      }
      const double ms = (NowSeconds() - t0) * 1e3;
      out->busy_s += ms / 1e3;
      if (ack && ok) out->ack_ms.push_back(ms);
      if (tally != nullptr) {
        tally->wall_ms += ms;
        const std::vector<obs::QueryTrace::Span> spans = trace->spans();
        for (const auto& s : SpansNamed(spans, "ingest")) {
          tally->ms["ingest"] += SpanMs(s);
        }
        // Of a checkpoint, only the snapshot write is measured by layer;
        // building the snapshot's blobs and trimming the log stay
        // unattributed.
        for (const auto& s : SpansNamed(spans, "snapshot_write")) {
          tally->Add("storage", SpanMs(s));
          tally->Add("storage.snapshot_write", SpanMs(s));
        }
      }
      return ok;
    };
    for (size_t b = 0; b < in_.batches.size(); ++b) {
      if (!timed([&] { return store->Ingest(in_.batches[b]).ok(); }, true)) {
        return false;
      }
      if ((b + 1) % kCheckpointEvery == 0 &&
          !timed([&] { return store->Checkpoint().ok(); }, false)) {
        return false;
      }
    }
    if (!timed([&] { return store->Checkpoint().ok(); }, false)) return false;
    if (store->last_sequence() != in_.batches.size()) return false;
    out->stored_bytes =
        DirectoryBytes(dir.Sub("wal")) + DirectoryBytes(dir.Sub("snap"));
    out->store = std::move(store);
    return true;
  }

  const std::string work_dir_;
  IngestInputs in_;
  uint64_t stored_bytes_ = 0;
};

class RecoverWorkload : public Workload {
 public:
  explicit RecoverWorkload(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  void Setup(uint64_t seed) override {
    dir_.reset();
    live_.reset();
    in_ = IngestInputs();
    in_ = MakeIngestInputs(seed);
    dir_ = std::make_unique<RunDir>(work_dir_, "recover");
    // Half the stream is covered by a snapshot, the rest is WAL tail.
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(dir_->Sub("wal"), dir_->Sub("snap"), in_.options);
    if (!store.ok()) Die("recover set-up open failed");
    const size_t half = in_.batches.size() / 2;
    for (size_t b = 0; b < in_.batches.size(); ++b) {
      if (!store.value()->Ingest(in_.batches[b]).ok()) Die("set-up ingest");
      if (b + 1 == half && !store.value()->Checkpoint().ok()) {
        Die("set-up checkpoint");
      }
    }
    live_ = std::make_unique<ExperimentBsiData>(store.value()->data());
    store.value().reset();
    stored_bytes_ =
        DirectoryBytes(dir_->Sub("wal")) + DirectoryBytes(dir_->Sub("snap"));
    // Warm-up: the first Open settles the WAL directory (it starts a new
    // empty active segment) and the page cache.
    if (!Open(nullptr).ok()) Die("warm-up recovery failed");
  }

  int Verify() override {
    Result<std::unique_ptr<IngestStore>> store = Open(nullptr);
    if (!store.ok()) return 1;
    return SameWarehouse(store.value()->data(), *live_) ? 0 : 1;
  }

  Outcome Run(double seconds) override {
    Outcome outcome;
    const ProcessUsage u0 = ReadProcessUsage();
    const double end = NowSeconds() + seconds;
    for (size_t op = 0; NowSeconds() < end; ++op) {
      IngestRecoveryReport report;
      const double t0 = NowSeconds();
      Result<std::unique_ptr<IngestStore>> store = Open(&report);
      const double ms = (NowSeconds() - t0) * 1e3;
      ++outcome.attempted;
      // Every eighth recovery is compared with the live store in full.
      if (!store.ok() ||
          store.value()->last_sequence() != in_.batches.size() ||
          (op % 8 == 0 && !SameWarehouse(store.value()->data(), *live_))) {
        ++outcome.failed;
        continue;
      }
      outcome.latencies_ms.push_back(ms);
      outcome.busy_seconds += ms / 1e3;
      outcome.work_items += static_cast<double>(report.events_applied);
    }
    outcome.cpu_seconds = ReadProcessUsage().cpu_seconds - u0.cpu_seconds;
    return outcome;
  }

  Outcome RunTraced(double seconds, MetricSink* out) override {
    (void)seconds;
    constexpr int kOps = 8;
    Outcome outcome;
    std::vector<double> untraced_ms, traced_ms;
    for (int i = 0; i < kOps; ++i) {
      const double t0 = NowSeconds();
      if (!Open(nullptr).ok()) ++outcome.failed;
      untraced_ms.push_back((NowSeconds() - t0) * 1e3);
    }
    std::vector<double> total_ms, load_ms, replay_ms;
    RegistryWindow pass[2];
    for (int p = 0; p < 2; ++p) {
      pass[p].Begin();
      for (int i = 0; i < kOps; ++i) {
        obs::QueryTrace trace("op");
        const double t0 = NowSeconds();
        Result<std::unique_ptr<IngestStore>> store =
            Status::Unavailable("not opened");
        {
          obs::ScopedTrace scoped(&trace);
          store = Open(nullptr);
        }
        const double ms = (NowSeconds() - t0) * 1e3;
        ++outcome.attempted;
        if (!store.ok()) {
          ++outcome.failed;
          continue;
        }
        if (p != 0) continue;
        traced_ms.push_back(ms);
        const auto spans = trace.spans();
        double load = 0.0, replay = 0.0, total = 0.0;
        for (const auto& s : SpansNamed(spans, "snapshot_recover")) load += SpanMs(s);
        for (const auto& s : SpansNamed(spans, "wal_replay")) replay += SpanMs(s);
        for (const auto& s : SpansNamed(spans, "ingest_recover")) total += SpanMs(s);
        total_ms.push_back(total);
        load_ms.push_back(load);
        replay_ms.push_back(replay);
      }
      pass[p].End();
    }
    AddCounterMetrics(pass[0], kOps, out);
    AddRepeatCheck(pass[0], pass[1], out);
    AddTracedTimes(untraced_ms, traced_ms, out);

    const ExperimentBsiData bucketed = BucketedSample(in_.sample);
    ReplayInputs in;
    in.data = live_.get();
    in.bucketed = &bucketed;
    in.batches = in_.batches;
    in.merged = live_.get();
    ReplayProfile profile;
    outcome.failed += static_cast<uint64_t>(ReplayWarehouse(
        in, IngestExperiment(), IngestMetrics(), work_dir_, out, &profile));
    double decode_ms = 0.0, merge_ms = 0.0;
    outcome.failed += static_cast<uint64_t>(ReplayOpen(&decode_ms, &merge_ms));

    // Open = snapshot load (storage) + WAL scan (wal) + decoding the
    // snapshot's blobs and merging the WAL tail (bsi, as replayed); the
    // rest of the open (log and encoder set-up) stays unattributed.
    LayerTally tally;
    for (size_t i = 0; i < traced_ms.size(); ++i) {
      tally.wall_ms += traced_ms[i];
      tally.Add("storage", load_ms[i]);
      tally.Add("storage.snapshot_load", load_ms[i]);
      tally.Add("wal", replay_ms[i]);
      tally.Add("wal.replay", replay_ms[i]);
      const double rest = std::max(total_ms[i] - load_ms[i] - replay_ms[i], 0.0);
      const double decode = std::min(decode_ms, rest);
      const double merge = std::min(merge_ms, rest - decode);
      tally.Add("bsi", decode + merge);
      tally.Add("bsi.decode", decode);
      tally.Add("bsi.merge_append", merge);
    }
    AddShares(tally, out);
    return outcome;
  }

  double StoredBytesPerInputByte() const override {
    return static_cast<double>(stored_bytes_) /
           static_cast<double>(in_.raw_bytes);
  }

 private:
  Result<std::unique_ptr<IngestStore>> Open(IngestRecoveryReport* report) {
    return IngestStore::Open(dir_->Sub("wal"), dir_->Sub("snap"),
                             in_.options, report);
  }

  // Open's two BSI steps, timed apart on the same inputs (medians of kReps
  // repetitions): decoding the snapshot into a warehouse, and one delta
  // build of the WAL tail merged into the checkpointed state. The decoded
  // warehouse must equal the checkpointed one, and the merge the live one;
  // returns the number that do not.
  int ReplayOpen(double* decode_ms, double* merge_ms) {
    constexpr int kReps = 8;
    const size_t half = in_.batches.size() / 2;
    RunDir dir(work_dir_, "recover-replay");
    Result<std::unique_ptr<IngestStore>> store =
        IngestStore::Open(dir.Sub("wal"), dir.Sub("snap"), in_.options);
    if (!store.ok()) return 1;
    for (size_t b = 0; b < half; ++b) {
      if (!store.value()->Ingest(in_.batches[b]).ok()) return 1;
    }
    const ExperimentBsiData checkpointed = store.value()->data();
    Result<BsiStore> snapshot = BsiStore::Recover(dir_->Sub("snap"));
    if (!snapshot.ok()) return 1;
    int wrong = 0;
    std::vector<double> decode, merge;
    for (int rep = 0; rep < kReps; ++rep) {
      double t0 = NowSeconds();
      Result<ExperimentBsiData> decoded = ReconstructBsiData(
          snapshot.value(), in_.options.num_segments, in_.options.num_buckets,
          in_.options.bucket_equals_segment);
      decode.push_back((NowSeconds() - t0) * 1e3);
      if (!decoded.ok() || !SameWarehouse(decoded.value(), checkpointed)) {
        ++wrong;
      }
      ExperimentBsiData target = checkpointed;
      t0 = NowSeconds();
      DeltaBuilder builder(in_.options.num_segments, in_.options.num_buckets,
                           in_.options.bucket_equals_segment);
      for (size_t b = half; b < in_.batches.size(); ++b) {
        for (const WalEvent& e : in_.batches[b]) builder.Add(e);
      }
      builder.MergeInto(&target);
      merge.push_back((NowSeconds() - t0) * 1e3);
      if (!SameWarehouse(target, *live_)) ++wrong;
    }
    *decode_ms = Median(decode);
    *merge_ms = Median(merge);
    return wrong;
  }

  const std::string work_dir_;
  IngestInputs in_;
  std::unique_ptr<RunDir> dir_;
  std::unique_ptr<ExperimentBsiData> live_;
  uint64_t stored_bytes_ = 0;
};

// ---- the daily pre-compute batch ------------------------------------------

constexpr uint64_t kPrecomputeUsers = 1u << 14;
constexpr int kPrecomputeSegments = 8;
constexpr int kPrecomputeBuckets = 32;
constexpr int kLookbackDays = 7;

class PrecomputeWorkload : public Workload {
 public:
  explicit PrecomputeWorkload(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  void Setup(uint64_t seed) override {
    DatasetConfig config;
    config.num_users = kPrecomputeUsers;
    config.num_segments = kPrecomputeSegments;
    config.num_buckets = kPrecomputeBuckets;
    config.bucket_equals_segment = false;
    config.num_days = kDays;
    config.start_date = kStart;
    config.seed = seed;
    bsi_.reset();
    sample_ = Dataset();
    {
      const Dataset dataset =
          GenerateDataset(config, {ControlTreatment()}, ShapedMetrics(1), {});
      raw_bytes_ = RawInputBytes(dataset);
      sample_segment_ = static_cast<int>(seed % kPrecomputeSegments);
      sample_ = OneSegment(dataset, sample_segment_, 0);
      bsi_ = std::make_unique<ExperimentBsiData>(
          BuildExperimentBsiData(dataset, true));
    }
    stored_bytes_ = BuildColdStore(*bsi_).TotalBytes();
    pairs_.clear();
    for (uint64_t s : ControlTreatment().strategy_ids) {
      for (const MetricConfig& m : ShapedMetrics(1)) {
        pairs_.push_back({s, m.metric_id});
      }
    }
    // No warm-up batch here: the oracle pass runs one before timing. A
    // set-up on the pool's threads read 0.14 s in some runs and 0.21 s in
    // others, too unsteady to gate.
    expected_.reset();
  }

  int Verify() override {
    // The batch against the engine's own direct paths over the whole data,
    // and those paths against the scalar oracle on one seeded segment.
    Batch batch;
    if (!RunBatch(nullptr, &batch)) return 1;
    int wrong = 0;
    const Date lo = ExptStart(), hi = kStart + kDays - 1;
    for (size_t i = 0; i < pairs_.size(); ++i) {
      const auto& [s, m] = pairs_[i];
      if (!SameValues(batch.results[i],
                      ComputeStrategyMetricBsi(*bsi_, s, m, lo, hi)) ||
          !SameValues(batch.pre[i],
                      ComputePreExperimentBsi(*bsi_, s, m, ExptStart(),
                                              kLookbackDays, hi))) {
        ++wrong;
      }
    }
    const ExperimentBsiData sub = BuildExperimentBsiData(sample_, true);
    const RefExperimentData ref = BuildRefExperimentData(sample_);
    std::map<uint64_t, PreAggIndex> indexes;
    for (const auto& [s, m] : pairs_) {
      if (!indexes.count(m)) {
        indexes.emplace(m, BuildPreAggIndex(sub, m, kStart, hi));
      }
      if (!SameValues(ComputeStrategyMetricBsi(sub, s, m, lo, hi),
                      RefComputeStrategyMetric(ref, s, m, lo, hi)) ||
          !SameValues(ComputePreExperimentWithTree(sub, indexes.at(m), s,
                                                   ExptStart(), kLookbackDays,
                                                   hi),
                      RefComputePreExperiment(ref, s, m, ExptStart(),
                                              kLookbackDays, hi))) {
        ++wrong;
      }
    }
    expected_ = std::make_unique<Batch>(std::move(batch));
    return wrong;
  }

  Outcome Run(double seconds) override {
    Outcome outcome;
    const ProcessUsage u0 = ReadProcessUsage();
    const double end = NowSeconds() + seconds;
    while (NowSeconds() < end) {
      Batch batch;
      const double t0 = NowSeconds();
      const bool ok = RunBatch(nullptr, &batch);
      const double ms = (NowSeconds() - t0) * 1e3;
      ++outcome.attempted;
      if (!ok || !SameBatch(batch)) {
        ++outcome.failed;
        continue;
      }
      outcome.latencies_ms.push_back(ms);
      outcome.busy_seconds += ms / 1e3;
      outcome.work_items += static_cast<double>(pairs_.size());
    }
    outcome.cpu_seconds = ReadProcessUsage().cpu_seconds - u0.cpu_seconds;
    return outcome;
  }

  Outcome RunTraced(double seconds, MetricSink* out) override {
    (void)seconds;
    constexpr int kOps = 4;
    Outcome outcome;
    std::vector<double> untraced_ms, traced_ms;
    for (int i = 0; i < kOps; ++i) {
      Batch batch;
      const double t0 = NowSeconds();
      if (!RunBatch(nullptr, &batch) || !SameBatch(batch)) ++outcome.failed;
      untraced_ms.push_back((NowSeconds() - t0) * 1e3);
    }
    LayerTally tally;
    RegistryWindow pass[2];
    for (int p = 0; p < 2; ++p) {
      pass[p].Begin();
      for (int i = 0; i < kOps; ++i) {
        Batch batch;
        LayerTally one;
        const double t0 = NowSeconds();
        const bool ok = RunBatch(&one, &batch);
        const double ms = (NowSeconds() - t0) * 1e3;
        ++outcome.attempted;
        if (!ok || !SameBatch(batch)) {
          ++outcome.failed;
          continue;
        }
        if (p != 0) continue;
        traced_ms.push_back(ms);
        tally.wall_ms += ms;
        for (const auto& [k, v] : one.ms) tally.ms[k] += v;
      }
      pass[p].End();
    }
    // RunBsi's wall time splits between the pool (tasks waiting for a
    // worker) and the pipeline, in the proportion of the pool's own
    // wait and run histograms.
    const double wait_us = pass[0].HistogramSum("pool.task_wait_us");
    const double run_us = pass[0].HistogramSum("pool.task_run_us");
    if (wait_us + run_us > 0) {
      const double pool_ms = tally.ms["cluster"] * wait_us / (wait_us + run_us);
      tally.ms["cluster"] -= pool_ms;
      tally.Add("common", pool_ms);
    }
    AddCounterMetrics(pass[0], kOps, out);
    AddRepeatCheck(pass[0], pass[1], out);
    AddTracedTimes(untraced_ms, traced_ms, out);
    ReplayInputs in;
    in.data = bsi_.get();
    in.bucketed = bsi_.get();
    in.batches = SampleBatches(sample_, 0);
    ReplayProfile profile;
    const int wrong = ReplayWarehouse(in, ControlTreatment(), ShapedMetrics(1),
                                      work_dir_, out, &profile);
    outcome.failed += static_cast<uint64_t>(wrong);
    AddShares(tally, out);
    return outcome;
  }

  double StoredBytesPerInputByte() const override {
    return static_cast<double>(stored_bytes_) / static_cast<double>(raw_bytes_);
  }

 private:
  struct Batch {
    std::vector<BucketValues> results;  // per pair, RunBsi's answer
    std::vector<BucketValues> pre;      // per pair, pre-period sums
  };

  // The experiment runs over the last kDays - kLookbackDays days; the
  // pre-period is the kLookbackDays before it.
  static Date ExptStart() { return kStart + kLookbackDays; }

  bool SameBatch(const Batch& b) const {
    if (expected_ == nullptr) return true;
    for (size_t i = 0; i < pairs_.size(); ++i) {
      if (!SameValues(b.results[i], expected_->results[i]) ||
          !SameValues(b.pre[i], expected_->pre[i])) {
        return false;
      }
    }
    return true;
  }

  // One daily batch; with `tally`, each stage's wall time is recorded
  // under the module that runs it.
  bool RunBatch(LayerTally* tally, Batch* out) {
    const Date lo = ExptStart(), hi = kStart + kDays - 1;
    PrecomputeConfig config;
    config.num_threads = NumCpus();
    PrecomputePipeline pipeline(nullptr, bsi_.get(), config);
    double t0 = NowSeconds();
    const PrecomputeStats stats = pipeline.RunBsi(pairs_, lo, hi);
    if (tally != nullptr) tally->Add("cluster", (NowSeconds() - t0) * 1e3);
    if (!stats.failed_pairs.empty()) return false;
    for (const StrategyMetricPair& pair : pairs_) {
      const BucketValues* got = pipeline.GetResult(pair);
      if (got == nullptr) return false;
      out->results.push_back(*got);
    }
    std::map<uint64_t, PreAggIndex> indexes;
    t0 = NowSeconds();
    for (const StrategyMetricPair& pair : pairs_) {
      if (!indexes.count(pair.second)) {
        indexes.emplace(pair.second,
                        BuildPreAggIndex(*bsi_, pair.second, kStart, hi));
      }
    }
    if (tally != nullptr) tally->Add("engine", (NowSeconds() - t0) * 1e3);
    t0 = NowSeconds();
    for (const StrategyMetricPair& pair : pairs_) {
      out->pre.push_back(ComputePreExperimentWithTree(
          *bsi_, indexes.at(pair.second), pair.first, ExptStart(),
          kLookbackDays, hi));
    }
    if (tally != nullptr) tally->Add("engine", (NowSeconds() - t0) * 1e3);
    return true;
  }

  const std::string work_dir_;
  uint64_t raw_bytes_ = 1;
  uint64_t stored_bytes_ = 0;
  int sample_segment_ = 0;
  Dataset sample_;
  std::unique_ptr<ExperimentBsiData> bsi_;
  std::vector<StrategyMetricPair> pairs_;
  std::unique_ptr<Batch> expected_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir) {
  if (name == "scorecard_wide") {
    return std::make_unique<ScorecardWorkload>(work_dir);
  }
  if (name == "ingest_checkpoint") return std::make_unique<IngestWorkload>(work_dir);
  if (name == "recover") return std::make_unique<RecoverWorkload>(work_dir);
  if (name == "precompute_daily") {
    return std::make_unique<PrecomputeWorkload>(work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
