// The per-layer replay of a traced run: the benchmark's own timed calls
// into each layer's public functions, on the workload's own inputs. The
// program's spans say how long a served query or an ingest batch took as a
// whole; this replay says what each layer costs for the same work, and its
// answers must equal the served ones exactly.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <set>

#include "bsi/bsi_aggregate.h"
#include "bsi/bsi_group_by.h"
#include "cluster/precompute_pipeline.h"
#include "cluster/segment_query.h"
#include "engine/preexperiment.h"
#include "engine/scorecard.h"
#include "net/socket.h"
#include "net/transport.h"
#include "perfbench.h"
#include "storage/snapshot.h"
#include "storage/tiered_store.h"
#include "wal/delta_builder.h"
#include "wire/envelope.h"
#include "wire/messages.h"

namespace perfbench {

using namespace expbsi;

namespace {

double MsSince(double t0) { return (NowSeconds() - t0) * 1e3; }

// ---- net: connect and ping against a live node ----------------------------

int ReplayNet(uint16_t port, MetricSink* out) {
  constexpr int kConnects = 200;
  constexpr int kPings = 500;
  std::vector<double> connect_us;
  for (int i = 0; i < kConnects; ++i) {
    const double t0 = NowSeconds();
    Result<net::Socket> sock = net::Connect(port, net::Deadline::After(5.0));
    connect_us.push_back(MsSince(t0) * 1e3);
    if (!sock.ok()) return 1;
  }
  Result<net::Socket> conn = net::Connect(port, net::Deadline::After(5.0));
  if (!conn.ok()) return 1;
  net::FaultyEndpoint endpoint(/*endpoint_id=*/4242);
  std::vector<double> rtt_us;
  for (int i = 0; i < kPings; ++i) {
    wire::Envelope ping;
    ping.type = wire::MsgType::kPing;
    ping.request_id = static_cast<uint64_t>(i + 1);
    const net::Deadline deadline = net::Deadline::After(5.0);
    const double t0 = NowSeconds();
    if (!net::SendEnvelope(conn.value(), ping, deadline, &endpoint).ok() ||
        !net::RecvEnvelope(conn.value(), deadline, ping.request_id).ok()) {
      return 1;
    }
    rtt_us.push_back(MsSince(t0) * 1e3);
  }
  out->Add("net.connect_us", Median(connect_us), "us");
  out->Add("net.transport_rtt_us", Median(rtt_us), "us");
  return 0;
}

// ---- cluster / storage / bsi: the segment loop, one step at a time --------

struct StepTotals {
  double fetch_ms = 0, decode_ms = 0, mask_ms = 0, sum_ms = 0;
  uint64_t fetches = 0, decoded_bytes = 0, sum_calls = 0, sum_slices = 0;
};

// Mirrors ExecuteSegmentQuery step by step (fetch, decode, expose masks,
// masked sums) so each step can be timed; returns false when a blob the
// served query needed is missing or undecodable.
bool ReplaySegment(TieredStore& tier, int seg, const Query& q,
                   SegPartial* out, StepTotals* t) {
  const size_t nm = q.metrics.size();
  out->sums.assign(q.strategies.size() * nm, 0.0);
  out->counts.assign(q.strategies.size() * nm, 0.0);
  auto fetch = [&](const BsiStoreKey& key)
      -> std::optional<std::shared_ptr<const std::string>> {
    const double t0 = NowSeconds();
    Result<std::shared_ptr<const std::string>> blob = tier.Fetch(key);
    t->fetch_ms += MsSince(t0);
    ++t->fetches;
    if (!blob.ok()) return std::nullopt;
    t->decoded_bytes += blob.value()->size();
    return blob.value();
  };
  std::vector<std::optional<std::vector<RoaringBitmap>>> masks(
      q.strategies.size());
  std::vector<uint64_t> exposed(q.strategies.size(), 0);
  for (size_t si = 0; si < q.strategies.size(); ++si) {
    auto blob = fetch(BsiStoreKey{static_cast<uint16_t>(seg),
                                  BsiKind::kExpose, q.strategies[si], 0});
    if (!blob) continue;
    double t0 = NowSeconds();
    Result<ExposeBsi> expose = ExposeBsi::Deserialize(**blob);
    t->decode_ms += MsSince(t0);
    if (!expose.ok()) return false;
    t0 = NowSeconds();
    std::vector<RoaringBitmap> by_day;
    for (Date d = q.lo; d <= q.hi; ++d) {
      if (by_day.empty()) {
        by_day.push_back(expose.value().ExposedOnOrBefore(d));
      } else {
        RoaringBitmap mask = by_day.back();
        mask.OrInPlace(expose.value().ExposedBetween(d, d));
        by_day.push_back(std::move(mask));
      }
    }
    exposed[si] = by_day.back().Cardinality();
    masks[si].emplace(std::move(by_day));
    t->mask_ms += MsSince(t0);
  }
  for (size_t mi = 0; mi < nm; ++mi) {
    for (Date d = q.lo; d <= q.hi; ++d) {
      auto blob = fetch(BsiStoreKey{static_cast<uint16_t>(seg),
                                    BsiKind::kMetric, q.metrics[mi],
                                    static_cast<uint32_t>(d)});
      if (!blob) continue;
      double t0 = NowSeconds();
      Result<MetricBsi> metric = MetricBsi::Deserialize(**blob);
      t->decode_ms += MsSince(t0);
      if (!metric.ok()) return false;
      t0 = NowSeconds();
      for (size_t si = 0; si < q.strategies.size(); ++si) {
        if (!masks[si]) continue;
        out->sums[si * nm + mi] += static_cast<double>(
            metric.value().value.SumUnderMask((*masks[si])[d - q.lo]));
        ++t->sum_calls;
        t->sum_slices += metric.value().value.num_slices();
      }
      t->sum_ms += MsSince(t0);
    }
    for (size_t si = 0; si < q.strategies.size(); ++si) {
      if (masks[si]) {
        out->counts[si * nm + mi] += static_cast<double>(exposed[si]);
      }
    }
  }
  return true;
}

bool PartialMatches(const SegPartial& a, const SegPartial& b) {
  return a.sums == b.sums && a.counts == b.counts;
}

// The served answer restricted to one segment, in SegPartial slot order.
SegPartial ServedPartial(const PairResults& served, const Query& q, int seg) {
  SegPartial p;
  for (uint64_t s : q.strategies) {
    for (uint64_t m : q.metrics) {
      const auto it = served.find({s, m});
      const bool have =
          it != served.end() && static_cast<size_t>(seg) < it->second.sums.size();
      p.sums.push_back(have ? it->second.sums[seg] : -1.0);
      p.counts.push_back(have ? it->second.counts[seg] : -1.0);
    }
  }
  return p;
}

int ReplayServing(const ReplayInputs& in, MetricSink* out,
                  ReplayProfile* profile) {
  const int num_nodes = static_cast<int>(in.node_stores.size());
  const int num_segments = in.data->num_segments;
  std::vector<std::unique_ptr<TieredStore>> tiers;
  for (const BsiStore* store : in.node_stores) {
    tiers.push_back(
        std::make_unique<TieredStore>(store, in.hot_capacity_bytes));
  }
  auto node_of = [&](int seg) {
    return in.placement != nullptr ? in.placement->PrimaryOf(seg) : 0;
  };
  // Direct-engine answers for bucket == segment data, when nothing was
  // served (the replay then checks against the engine instead).
  std::map<std::tuple<uint64_t, uint64_t, Date, Date>, BucketValues> direct;
  auto expected = [&](size_t qi, int seg) -> std::optional<SegPartial> {
    const Query& q = in.queries[qi];
    if (qi < in.served.size()) return ServedPartial(in.served[qi], q, seg);
    if (!in.data->bucket_equals_segment) return std::nullopt;
    PairResults pr;
    for (uint64_t s : q.strategies) {
      for (uint64_t m : q.metrics) {
        auto key = std::make_tuple(s, m, q.lo, q.hi);
        auto it = direct.find(key);
        if (it == direct.end()) {
          it = direct
                   .emplace(key, ComputeStrategyMetricBsi(*in.data, s, m,
                                                          q.lo, q.hi))
                   .first;
        }
        pr[{s, m}] = it->second;
      }
    }
    return ServedPartial(pr, q, seg);
  };

  // One untimed pass brings the replay tiers to the served steady state.
  for (const Query& q : in.queries) {
    for (int seg = 0; seg < num_segments; ++seg) {
      SegPartial p;
      StepTotals scratch;
      ReplaySegment(*tiers[node_of(seg)], seg, q, &p, &scratch);
    }
  }
  for (auto& tier : tiers) tier->ResetStats();

  int mismatches = 0;
  StepTotals total;
  double exec_ms = 0.0;
  double skew_sum = 0.0;
  std::vector<double> encode_us, decode_us;
  profile->per_query.assign(in.queries.size(),
                            std::vector<NodeReplay>(num_nodes));
  for (size_t qi = 0; qi < in.queries.size(); ++qi) {
    const Query& q = in.queries[qi];
    std::vector<std::vector<uint32_t>> node_segments(num_nodes);
    std::vector<std::vector<wire::WireSegmentResult>> node_results(num_nodes);
    for (int seg = 0; seg < num_segments; ++seg) {
      const int node = node_of(seg);
      NodeReplay& nr = profile->per_query[qi][node];
      StepTotals steps;
      SegPartial replayed;
      const double t0 = NowSeconds();
      const bool ok = ReplaySegment(*tiers[node], seg, q, &replayed, &steps);
      nr.total_ms += MsSince(t0);
      nr.fetch_ms += steps.fetch_ms;
      nr.decode_ms += steps.decode_ms;
      nr.mask_ms += steps.mask_ms;
      nr.sum_ms += steps.sum_ms;
      total.fetch_ms += steps.fetch_ms;
      total.decode_ms += steps.decode_ms;
      total.mask_ms += steps.mask_ms;
      total.sum_ms += steps.sum_ms;
      total.fetches += steps.fetches;
      total.decoded_bytes += steps.decoded_bytes;
      total.sum_calls += steps.sum_calls;
      total.sum_slices += steps.sum_slices;

      // The program's own segment path on the same tier.
      SegPartial executed;
      SegmentExecStats exec_stats;
      const double t1 = NowSeconds();
      const Result<bool> ran = ExecuteSegmentQuery(
          *tiers[node], seg, q.strategies, q.metrics, q.lo, q.hi,
          RetryPolicy{}, /*allow_degraded=*/false, &executed, &exec_stats);
      exec_ms += MsSince(t1);
      const std::optional<SegPartial> want = expected(qi, seg);
      if (!ok || !ran.ok() || !ran.value() ||
          !PartialMatches(replayed, executed) ||
          (want && !PartialMatches(replayed, *want))) {
        ++mismatches;
      }
      node_segments[node].push_back(static_cast<uint32_t>(seg));
      wire::WireSegmentResult wr;
      wr.segment = static_cast<uint32_t>(seg);
      wr.sums = replayed.sums;
      wr.counts = replayed.counts;
      node_results[node].push_back(std::move(wr));
    }
    double max_ms = 0.0, sum_ms = 0.0;
    int busy = 0;
    for (const NodeReplay& nr : profile->per_query[qi]) {
      if (nr.total_ms <= 0.0) continue;
      max_ms = std::max(max_ms, nr.total_ms);
      sum_ms += nr.total_ms;
      ++busy;
    }
    if (busy > 0 && sum_ms > 0.0) skew_sum += max_ms / (sum_ms / busy);

    // wire: this query's request and response payload per node, the
    // response carrying the replayed sums and a span tree shaped like the
    // one a traced node ships back.
    for (int node = 0; node < num_nodes; ++node) {
      if (node_segments[node].empty()) continue;
      wire::WireQueryRequest req;
      req.strategy_ids = q.strategies;
      req.metric_ids = q.metrics;
      req.date_lo = q.lo;
      req.date_hi = q.hi;
      req.segments = node_segments[node];
      req.want_trace = true;
      wire::WireQueryResponse resp;
      resp.segments = node_results[node];
      resp.hot_hits = node_segments[node].size();
      resp.cpu_seconds = profile->per_query[qi][node].total_ms / 1e3;
      wire::WireSpan root;
      root.id = 1;
      root.name = "node_query";
      root.duration_ns = 1000000;
      resp.spans.push_back(root);
      for (uint32_t seg : node_segments[node]) {
        wire::WireSpan span;
        span.id = static_cast<uint32_t>(resp.spans.size() + 1);
        span.parent_id = 1;
        span.name = "segment_execute";
        span.start_ns = 1000 * seg;
        span.duration_ns = 100000;
        span.attrs.push_back({"segment", seg});
        resp.spans.push_back(std::move(span));
      }
      constexpr int kReps = 20;
      std::string req_bytes, resp_bytes;
      double t0 = NowSeconds();
      for (int r = 0; r < kReps; ++r) {
        req_bytes.clear();
        resp_bytes.clear();
        wire::EncodeQueryRequest(req, &req_bytes);
        wire::EncodeQueryResponse(resp, &resp_bytes);
      }
      encode_us.push_back(MsSince(t0) * 1e3 / kReps);
      bool decoded_ok = true;
      t0 = NowSeconds();
      for (int r = 0; r < kReps; ++r) {
        Result<wire::WireQueryRequest> rq = wire::DecodeQueryRequest(req_bytes);
        Result<wire::WireQueryResponse> rs =
            wire::DecodeQueryResponse(resp_bytes);
        decoded_ok = decoded_ok && rq.ok() && rs.ok() && rq.value() == req &&
                     rs.value() == resp;
      }
      decode_us.push_back(MsSince(t0) * 1e3 / kReps);
      if (!decoded_ok) ++mismatches;
    }
  }
  const double nq = std::max<size_t>(in.queries.size(), 1);
  out->Add("wire.encode_us", Median(encode_us), "us");
  out->Add("wire.decode_us", Median(decode_us), "us");
  out->Add("cluster.segment_exec_ms", exec_ms / nq, "ms");
  out->Add("cluster.node_skew_ratio", skew_sum / nq, "ratio");
  out->Add("storage.tier_fetch_us",
           total.fetches ? total.fetch_ms * 1e3 / total.fetches : 0.0, "us");
  out->Add("bsi.decode_ms_per_query", total.decode_ms / nq, "ms");
  out->Add("bsi.decoded_bytes_per_query", total.decoded_bytes / nq, "bytes");
  out->Add("bsi.mask_build_ms_per_query", total.mask_ms / nq, "ms");
  out->Add("bsi.sum_under_mask_ms_per_query", total.sum_ms / nq, "ms");
  out->Add("bsi.sum_under_mask_calls_per_query", total.sum_calls / nq,
           "count");
  out->Add("bsi.sum_under_mask_slices_per_query", total.sum_slices / nq,
           "count");
  return mismatches;
}

// ---- storage: snapshot write and load of the warehouse --------------------

int ReplaySnapshot(const BsiStore& cold, const std::string& dir,
                   MetricSink* out) {
  std::vector<double> write_ms, load_ms;
  uint64_t bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = NowSeconds();
    Result<SnapshotWriteStats> written = SnapshotWriter::Write(cold, dir);
    write_ms.push_back(MsSince(t0));
    if (!written.ok()) return 1;
    bytes = written.value().bytes_written;
    t0 = NowSeconds();
    Result<BsiStore> loaded = BsiStore::Recover(dir);
    load_ms.push_back(MsSince(t0));
    if (!loaded.ok() || loaded.value().NumBlobs() != cold.NumBlobs() ||
        loaded.value().TotalBytes() != cold.TotalBytes()) {
      return 1;
    }
  }
  out->Add("storage.snapshot_write_ms", Median(write_ms), "ms");
  out->Add("storage.snapshot_load_ms", Median(load_ms), "ms");
  out->Add("storage.snapshot_bytes_written", static_cast<double>(bytes),
           "bytes");
  return 0;
}

// ---- wal: fsync'd appends and replay of the workload's event batches -----

int ReplayWalLayer(const std::vector<std::vector<WalEvent>>& batches,
                   const std::string& dir, MetricSink* out,
                   ReplayProfile* profile) {
  if (batches.empty()) return 1;
  uint64_t events = 0;
  std::vector<double> append_ms;
  uint64_t fsyncs = 0;
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(dir, WalOptions{});
    if (!writer.ok()) return 1;
    const uint64_t fsyncs_before = writer.value()->fsyncs_performed();
    for (const std::vector<WalEvent>& batch : batches) {
      const double t0 = NowSeconds();
      if (!writer.value()->Append(batch).ok()) return 1;
      append_ms.push_back(MsSince(t0));
      profile->wal_append_ms += append_ms.back();
      events += batch.size();
    }
    fsyncs = writer.value()->fsyncs_performed() - fsyncs_before;
  }
  const uint64_t wal_bytes = DirectoryBytes(dir);
  WalRecoveryReport report;
  const double t0 = NowSeconds();
  Result<std::vector<WalRecord>> replayed = ReplayWal(dir, &report);
  const double replay_ms = MsSince(t0);
  if (!replayed.ok() || report.events_replayed != events ||
      replayed.value().size() != batches.size()) {
    return 1;
  }
  for (size_t i = 0; i < batches.size(); ++i) {
    if (replayed.value()[i].events != batches[i]) return 1;
  }
  const double nb = static_cast<double>(batches.size());
  out->Add("wal.append_ms_per_batch", Median(append_ms), "ms");
  out->Add("wal.fsyncs_per_batch", fsyncs / nb, "count");
  out->Add("wal.bytes_per_event",
           static_cast<double>(wal_bytes) / static_cast<double>(events),
           "bytes");
  out->Add("wal.replay_ms", replay_ms, "ms");
  out->Add("wal.replay_events_per_s",
           static_cast<double>(events) / (replay_ms / 1e3), "1/s");
  return 0;
}

// ---- bsi: delta build + MergeAppend of the same batches ------------------

// Each batch is built and merged the way IngestStore::Ingest does it, into
// one store that starts empty; returns 1 when the result differs from
// `merged` (if given).
int ReplayMerge(const ExperimentBsiData& shape,
                const std::vector<std::vector<WalEvent>>& batches,
                const ExperimentBsiData* merged, MetricSink* out,
                ReplayProfile* profile) {
  ExperimentBsiData target;
  target.num_segments = shape.num_segments;
  target.num_buckets = shape.num_buckets;
  target.bucket_equals_segment = shape.bucket_equals_segment;
  target.segments.resize(static_cast<size_t>(shape.num_segments));
  RegistryWindow window;
  window.Begin();
  std::vector<double> merge_ms;
  for (const std::vector<WalEvent>& batch : batches) {
    const double t0 = NowSeconds();
    DeltaBuilder builder(shape.num_segments, shape.num_buckets,
                         shape.bucket_equals_segment);
    for (const WalEvent& e : batch) builder.Add(e);
    builder.MergeInto(&target);
    merge_ms.push_back(MsSince(t0));
    profile->merge_ms += merge_ms.back();
  }
  window.End();
  const double nb = std::max<size_t>(batches.size(), 1);
  out->Add("bsi.merge_append_ms_per_batch", Median(merge_ms), "ms");
  out->Add("bsi.merge_appends_per_batch",
           (window.Counter("kernel.merge_appends") +
            window.Counter("kernel.merge_append_overlaps")) / nb,
           "count");
  return merged != nullptr && !SameWarehouse(target, *merged) ? 1 : 0;
}

// ---- engine / bsi / common: the pair kernels and the pool -----------------

int ReplayPairs(const ReplayInputs& in, MetricSink* out) {
  const ExperimentBsiData& data = *in.data;
  std::set<std::tuple<uint64_t, uint64_t, Date, Date>> pair_set;
  for (const Query& q : in.queries) {
    for (uint64_t s : q.strategies) {
      for (uint64_t m : q.metrics) pair_set.insert({s, m, q.lo, q.hi});
    }
  }
  std::vector<std::tuple<uint64_t, uint64_t, Date, Date>> pairs(
      pair_set.begin(), pair_set.end());
  if (pairs.size() > 8) pairs.resize(8);
  if (pairs.empty()) return 1;
  int mismatches = 0;
  std::vector<double> pair_ms, sum_bsi_ms, group_ms;
  for (const auto& [s, m, lo, hi] : pairs) {
    double t0 = NowSeconds();
    const BucketValues direct = ComputeStrategyMetricBsi(data, s, m, lo, hi);
    pair_ms.push_back(MsSince(t0));
    (void)direct;
    double sum_bsi = 0.0;
    for (int seg = 0; seg < data.num_segments; ++seg) {
      std::vector<const Bsi*> days;
      for (Date d = lo; d <= hi; ++d) {
        const MetricBsi* metric = data.segments[seg].FindMetric(m, d);
        if (metric != nullptr) days.push_back(&metric->value);
      }
      t0 = NowSeconds();
      const Bsi folded = SumBsi(days);
      sum_bsi += MsSince(t0);
      (void)folded;
    }
    // Per-bucket sums of the same pair; they must add up to the masked sum.
    const ExperimentBsiData& bucketed = *in.bucketed;
    double group = 0.0;
    for (const SegmentBsiData& sbd : bucketed.segments) {
      const ExposeBsi* expose = sbd.FindExpose(s);
      if (expose == nullptr) continue;
      for (Date d = lo; d <= hi; ++d) {
        const MetricBsi* metric = sbd.FindMetric(m, d);
        if (metric == nullptr) continue;
        const RoaringBitmap mask = expose->ExposedOnOrBefore(d);
        t0 = NowSeconds();
        const std::vector<uint64_t> sums = GroupSumByBucket(
            metric->value, expose->bucket, bucketed.num_buckets, mask);
        group += MsSince(t0);
        if (std::accumulate(sums.begin(), sums.end(), uint64_t{0}) !=
            metric->value.SumUnderMask(mask)) {
          ++mismatches;
        }
      }
    }
    sum_bsi_ms.push_back(sum_bsi);
    group_ms.push_back(group);
  }
  out->Add("engine.pair_ms", Median(pair_ms), "ms");
  out->Add("bsi.sum_bsi_ms_per_pair", Median(sum_bsi_ms), "ms");
  out->Add("bsi.group_sum_ms_per_pair", Median(group_ms), "ms");

  const auto& [s0, m0, lo0, hi0] = pairs.front();
  double t0 = NowSeconds();
  const PreAggIndex index = BuildPreAggIndex(data, m0, lo0, hi0);
  out->Add("engine.preagg_build_ms", MsSince(t0), "ms");
  (void)s0;
  (void)index;

  // The pair batch through the precompute pipeline's pool.
  PrecomputeConfig config;
  config.num_threads = NumCpus();
  PrecomputePipeline pipeline(nullptr, &data, config);
  std::vector<StrategyMetricPair> batch;
  for (const auto& [s, m, lo, hi] : pairs) {
    if (lo == lo0 && hi == hi0) batch.push_back({s, m});
  }
  RegistryWindow window;
  window.Begin();
  const ProcessUsage u0 = ReadProcessUsage();
  t0 = NowSeconds();
  const PrecomputeStats stats = pipeline.RunBsi(batch, lo0, hi0);
  const double wall_s = NowSeconds() - t0;
  const ProcessUsage u1 = ReadProcessUsage();
  window.End();
  if (!stats.failed_pairs.empty()) ++mismatches;
  for (const StrategyMetricPair& pair : batch) {
    const BucketValues* got = pipeline.GetResult(pair);
    if (got == nullptr ||
        !SameValues(*got, ComputeStrategyMetricBsi(data, pair.first,
                                                   pair.second, lo0, hi0))) {
      ++mismatches;
    }
  }
  const double tasks =
      std::max<uint64_t>(window.HistogramCount("pool.task_run_us"), 1);
  out->Add("common.pool_wait_us_per_task",
           window.HistogramSum("pool.task_wait_us") / tasks, "us");
  out->Add("common.pool_run_us_per_task",
           window.HistogramSum("pool.task_run_us") / tasks, "us");
  out->Add("common.pool_utilization",
           (u1.cpu_seconds - u0.cpu_seconds) / (wall_s * config.num_threads),
           "ratio");
  return mismatches;
}

}  // namespace

int RunLayerReplay(const ReplayInputs& in, MetricSink* out,
                   ReplayProfile* profile) {
  int failures = 0;
  failures += ReplayNet(in.probe_port, out);
  failures += ReplayServing(in, out, profile);
  failures += ReplaySnapshot(*in.cold, in.scratch_dir + "/replay_snap", out);
  failures += ReplayWalLayer(in.batches, in.scratch_dir + "/replay_wal", out,
                             profile);
  failures += ReplayMerge(*in.data, in.batches, in.merged, out, profile);
  failures += ReplayPairs(in, out);
  return failures;
}

}  // namespace perfbench
