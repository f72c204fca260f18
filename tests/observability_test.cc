// Observability suite (docs/OBSERVABILITY.md): the metrics registry
// (counters / gauges / log-linear histograms, Prometheus + JSON
// exposition), the per-query trace tree with deterministic span ids, the
// slow-query log, the instrumentation-overhead contract, and the
// chaos-visibility guarantee that an injected tier.fetch fault surfaces as
// monotone counter increments in one scraped registry dump plus one
// slow-query trace tree.
//
// Suite naming: ObservabilityConcurrencyTest and ObservabilityChaosTest
// intentionally match the tsan CI filter ('ConcurrencyTest|...|ChaosTest')
// so the hammer test runs under TSan.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "bsi/bsi_aggregate.h"
#include "cluster/adhoc_cluster.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "engine/experiment_data.h"
#include "expdata/generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace expbsi {
namespace {

using obs::GetCounter;
using obs::GetGauge;
using obs::GetHistogram;
using obs::MetricsRegistry;

#if !defined(EXPBSI_NO_METRICS)

// ---------------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterAccumulatesAndIsStableByName) {
  obs::Counter& c = GetCounter("test.obs.counter_basic");
  const uint64_t before = c.Value();
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), before + 42);
  // Same name -> same object (addresses are stable for the process life).
  EXPECT_EQ(&c, &GetCounter("test.obs.counter_basic"));
}

TEST(MetricsRegistryTest, GaugeMovesBothWays) {
  obs::Gauge& g = GetGauge("test.obs.gauge_basic");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.Value(), 4.0);
  g.Sub(5.0);
  EXPECT_DOUBLE_EQ(g.Value(), -1.0);
}

TEST(MetricsRegistryTest, HistogramBucketIndexMonotoneAndBoundsConsistent) {
  // BucketIndex must be monotone in the value and each value must fall at or
  // below its bucket's inclusive upper bound but above the previous one's.
  const std::vector<uint64_t> samples = {
      0,      1,         2,       3,       4,       5,      7,
      8,      9,         15,      16,      17,      63,     64,
      100,    1000,      4095,    4096,    1 << 20, 1u << 31,
      1ull << 40,        (1ull << 63) - 1, 1ull << 63, ~0ull};
  int prev_idx = -1;
  for (uint64_t v : samples) {
    const int idx = obs::Histogram::BucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, obs::Histogram::kNumBuckets);
    EXPECT_GE(idx, prev_idx) << "BucketIndex not monotone at " << v;
    EXPECT_LE(v, obs::Histogram::BucketUpperBound(idx)) << v;
    if (idx > 0) {
      EXPECT_GT(v, obs::Histogram::BucketUpperBound(idx - 1)) << v;
    }
    prev_idx = idx;
  }
  // Bounds themselves are monotone across the whole range.
  for (int i = 1; i < obs::Histogram::kNumBuckets; ++i) {
    EXPECT_GE(obs::Histogram::BucketUpperBound(i),
              obs::Histogram::BucketUpperBound(i - 1));
  }
}

TEST(MetricsRegistryTest, HistogramViewCountsEveryRecord) {
  obs::Histogram& h = GetHistogram("test.obs.hist_view");
  uint64_t expect_sum = 0;
  const std::vector<uint64_t> values = {0, 1, 1, 7, 100, 100, 5000, 1 << 22};
  for (uint64_t v : values) {
    h.Record(v);
    expect_sum += v;
  }
  const obs::MetricsSnapshot::HistogramView view = h.View();
  EXPECT_EQ(view.count, values.size());
  EXPECT_EQ(view.sum, expect_sum);
  uint64_t bucketed = 0;
  uint64_t prev_le = 0;
  for (size_t i = 0; i < view.buckets.size(); ++i) {
    const auto& [le, n] = view.buckets[i];
    if (i > 0) {
      EXPECT_GT(le, prev_le);  // strictly ascending bounds
    }
    EXPECT_GT(n, 0u);  // only non-empty buckets in the view
    bucketed += n;
    prev_le = le;
  }
  EXPECT_EQ(bucketed, view.count);
}

TEST(MetricsRegistryTest, PrometheusExpositionIsWellFormed) {
  GetCounter("test.obs.prom_counter").Add(3);
  GetGauge("test.obs.prom_gauge").Set(1.5);
  GetHistogram("test.obs.prom_hist").Record(10);
  GetHistogram("test.obs.prom_hist").Record(1000);
  const std::string text = MetricsRegistry::Global().RenderPrometheus();

  EXPECT_NE(text.find("# TYPE expbsi_test_obs_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("expbsi_test_obs_prom_counter 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE expbsi_test_obs_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE expbsi_test_obs_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("expbsi_test_obs_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("expbsi_test_obs_prom_hist_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("expbsi_test_obs_prom_hist_sum 1010"),
            std::string::npos);
  // No unflattened dots may survive in sample names.
  EXPECT_EQ(text.find("expbsi_test.obs"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonDumpContainsRegisteredMetrics) {
  GetCounter("test.obs.json_counter").Add(7);
  const std::string json = MetricsRegistry::Global().RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json_counter\": 7"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesInPlaceKeepingAddressesValid) {
  obs::Counter& c = GetCounter("test.obs.reset_counter");
  c.Add(9);
  MetricsRegistry::Global().ResetForTesting();
  EXPECT_EQ(c.Value(), 0u);
  c.Add(2);  // the cached reference keeps working after the reset
  EXPECT_EQ(c.Value(), 2u);
  EXPECT_EQ(GetCounter("test.obs.reset_counter").Value(), 2u);
}

#endif  // !EXPBSI_NO_METRICS

// ---------------------------------------------------------------------------
// Trace tree
// ---------------------------------------------------------------------------

// Runs the same nested-span scenario and returns the recorded spans.
std::vector<obs::QueryTrace::Span> RunCannedTrace(obs::QueryTrace* trace) {
  obs::ScopedTrace install(trace);
  {
    obs::ScopedSpan parse("parse");
    parse.AddAttr("text_bytes", 12);
  }
  {
    obs::ScopedSpan exec("execute");
    {
      obs::ScopedSpan seg("segment");
      seg.AddAttr("segment", 0);
    }
    {
      obs::ScopedSpan seg("segment");
      seg.AddAttr("segment", 1);
    }
  }
  return trace->spans();
}

TEST(TraceTest, SpanIdsAreDeterministicCreationOrder) {
  obs::QueryTrace t1("canned");
  obs::QueryTrace t2("canned");
  std::vector<obs::QueryTrace::Span> s1, s2;
  {
    obs::ScopedTrace done1(nullptr);  // ensure no ambient trace leaks in
    s1 = RunCannedTrace(&t1);
    s2 = RunCannedTrace(&t2);
  }
  ASSERT_EQ(s1.size(), 5u);  // root + parse + execute + 2 segments
  ASSERT_EQ(s2.size(), s1.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].id, i + 1);  // 1-based creation order
    EXPECT_EQ(s1[i].id, s2[i].id);
    EXPECT_EQ(s1[i].parent_id, s2[i].parent_id);
    EXPECT_EQ(s1[i].name, s2[i].name);
    EXPECT_LT(s1[i].parent_id, s1[i].id);  // parents precede children
  }
  EXPECT_EQ(s1[0].name, "canned");
  EXPECT_EQ(s1[0].parent_id, 0u);
  EXPECT_EQ(s1[1].name, "parse");
  EXPECT_EQ(s1[1].parent_id, 1u);
  EXPECT_EQ(s1[3].name, "segment");
  EXPECT_EQ(s1[3].parent_id, 3u);  // child of "execute"
}

TEST(TraceTest, TextTreeIndentsChildrenAndCarriesAttrs) {
  obs::QueryTrace trace("query");
  RunCannedTrace(&trace);
  const std::string text = trace.ToText();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("  - parse"), std::string::npos);
  EXPECT_NE(text.find("    - segment"), std::string::npos);
  EXPECT_NE(text.find("segment=1"), std::string::npos);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\": \"query\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
}

TEST(TraceTest, ScopedSpanWithoutActiveTraceIsNoop) {
  obs::ScopedSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.AddAttr("ignored", 1);  // must not crash
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
}

TEST(TraceTest, TracesNestAndRestore) {
  obs::QueryTrace outer("outer");
  obs::QueryTrace inner("inner");
  {
    obs::ScopedTrace a(&outer);
    EXPECT_EQ(obs::CurrentTrace(), &outer);
    {
      obs::ScopedTrace b(&inner);
      EXPECT_EQ(obs::CurrentTrace(), &inner);
    }
    EXPECT_EQ(obs::CurrentTrace(), &outer);
  }
  EXPECT_EQ(obs::CurrentTrace(), nullptr);
}

TEST(TraceTest, SlowQueryLogFiresAtThresholdZero) {
  obs::SetSlowQueryThresholdMsForTesting(0.0);
  {
    obs::QueryTrace trace("slow_canary");
    obs::ScopedTrace install(&trace);
    obs::ScopedSpan work("work");
  }
  const std::string text = obs::LastSlowQueryTextForTesting();
  EXPECT_NE(text.find("slow_canary"), std::string::npos);
  EXPECT_NE(text.find("work"), std::string::npos);
  obs::SetSlowQueryThresholdMsForTesting(-1.0);  // disable again
}

#if !defined(EXPBSI_NO_METRICS)

// ---------------------------------------------------------------------------
// Concurrency: hammer the registry from pool workers (runs under TSan via
// the CI filter).
// ---------------------------------------------------------------------------

TEST(ObservabilityConcurrencyTest, RegistryHammerFromThreadPoolWorkers) {
  constexpr int kTasks = 64;
  constexpr int kOpsPerTask = 2000;
  obs::Counter& counter = GetCounter("test.obs.hammer_counter");
  obs::Gauge& gauge = GetGauge("test.obs.hammer_gauge");
  obs::Histogram& hist = GetHistogram("test.obs.hammer_hist");
  const uint64_t count_before = counter.Value();
  const uint64_t hist_before = hist.Count();
  gauge.Set(0.0);
  {
    ThreadPool pool(8);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&counter, &gauge, &hist] {
        for (int i = 0; i < kOpsPerTask; ++i) {
          counter.Add();
          gauge.Add(1.0);
          hist.Record(static_cast<uint64_t>(i));
          // Concurrent registration against the same names must also be
          // safe, not just increments on cached references.
          GetCounter("test.obs.hammer_counter2").Add();
        }
        gauge.Sub(static_cast<double>(kOpsPerTask));
      });
    }
    pool.Wait();
    // Concurrent scrapes while (potentially) racing with late increments.
    (void)MetricsRegistry::Global().Scrape();
    (void)MetricsRegistry::Global().RenderPrometheus();
  }
  EXPECT_EQ(counter.Value() - count_before,
            static_cast<uint64_t>(kTasks) * kOpsPerTask);
  EXPECT_EQ(hist.Count() - hist_before,
            static_cast<uint64_t>(kTasks) * kOpsPerTask);
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);  // every Add matched by the Sub
}

// ---------------------------------------------------------------------------
// Overhead contract: increments are cheap and the kernels publish batched
// totals, not per-word registry traffic. The compile-mode comparison
// (instrumented vs EXPBSI_NO_METRICS) is pinned by the committed
// BENCH_pr5.json / BENCH_pr5_nometrics.json pair; this test pins the
// in-binary properties that keep that delta small.
// ---------------------------------------------------------------------------

TEST(MetricsOverheadTest, CounterAddStaysCheap) {
  obs::Counter& c = GetCounter("test.obs.overhead_counter");
  constexpr int kAdds = 1000000;
  Stopwatch wall;
  for (int i = 0; i < kAdds; ++i) c.Add();
  const double ns_per_add = wall.ElapsedSeconds() * 1e9 / kAdds;
  // A relaxed fetch_add on a thread-striped padded cell is single-digit
  // nanoseconds; 200ns leaves two orders of magnitude of slack for
  // sanitizer builds and noisy CI machines.
  EXPECT_LT(ns_per_add, 200.0) << "counter Add too slow";
  EXPECT_GE(c.Value(), static_cast<uint64_t>(kAdds));
}

TEST(MetricsOverheadTest, SumBsiKernelPublishesBatchedCounts) {
  Rng rng(2024);
  std::vector<Bsi> days;
  std::vector<const Bsi*> ptrs;
  for (int d = 0; d < 8; ++d) {
    const auto values = testing_util::RandomValueMap(rng, 4000, 20000,
                                                     1u << 15);
    days.push_back(Bsi::FromPairs(testing_util::ToPairVector(values)));
  }
  for (const Bsi& b : days) ptrs.push_back(&b);

  obs::Counter& calls = GetCounter("kernel.csa_calls");
  obs::Counter& words = GetCounter("kernel.csa_words_processed");
  obs::Counter& slices = GetCounter("kernel.sum_slices_touched");
  const uint64_t calls_before = calls.Value();
  const uint64_t words_before = words.Value();
  const uint64_t slices_before = slices.Value();

  const Bsi sum = SumBsi(ptrs);
  ASSERT_GT(sum.Sum(), 0u);

  const uint64_t calls_delta = calls.Value() - calls_before;
  const uint64_t words_delta = words.Value() - words_before;
  EXPECT_GT(slices.Value() - slices_before, 0u);
  ASSERT_GT(calls_delta, 0u);
  // The batching contract: one publish per kernel call that covers many
  // words of work. If the kernel ever started issuing registry ops
  // per-word, calls_delta would explode relative to the work done and this
  // ratio would collapse.
  EXPECT_GT(words_delta / calls_delta, 32u)
      << "kernel publishes too often relative to work per call";

  // The masked sum (the served-scorecard hot path) counts the slices it
  // intersects in the same batched counter: exactly one add per call.
  const uint64_t masked_before = slices.Value();
  EXPECT_GT(sum.SumUnderMask(days[0].existence()), 0u);
  EXPECT_EQ(slices.Value() - masked_before,
            static_cast<uint64_t>(sum.num_slices()));
}

// ---------------------------------------------------------------------------
// Chaos visibility (acceptance criterion): one injected tier.fetch
// corruption must show up as fault -> retries -> recovery in a single
// scraped registry dump, and in one slow-query trace tree.
// ---------------------------------------------------------------------------

TEST(ObservabilityChaosTest, InjectedTierCorruptionVisibleEndToEnd) {
  DatasetConfig config;
  config.num_users = 3000;
  config.num_segments = 4;
  config.num_days = 5;
  config.start_date = 10;
  config.seed = 77;
  ExperimentConfig exp;
  exp.strategy_ids = {11, 12};
  exp.arm_effects = {1.0, 1.0};
  MetricConfig metric;
  metric.metric_id = 5;
  metric.daily_participation = 0.5;
  const Dataset dataset = GenerateDataset(config, {exp}, {metric}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);

  auto counter_value = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) -> uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const obs::MetricsSnapshot before = MetricsRegistry::Global().Scrape();

  FaultInjector injector(/*seed=*/7);
  injector.ScheduleFault(fault_sites::kTierFetch, /*op_index=*/0,
                         FaultKind::kCorrupt);
  obs::SetSlowQueryThresholdMsForTesting(0.0);
  AdhocCluster::QueryStats stats;
  {
    ScopedFaultInjection guard(&injector);
    AdhocCluster cluster(&dataset, &bsi, AdhocClusterConfig{});
    auto result = cluster.QueryBsi({11}, {5}, 10, 14);
    ASSERT_TRUE(result.ok()) << result.status().message();
    stats = std::move(result).value();
  }
  obs::SetSlowQueryThresholdMsForTesting(-1.0);

  // The per-query stats saw the fault and its recovery.
  EXPECT_GE(stats.degraded.retries, 1);
  EXPECT_GE(stats.degraded.faults_survived, 1);
  EXPECT_TRUE(stats.degraded.lost_segments.empty());

  // One registry scrape shows the whole causal chain, each counter a
  // monotone increment over the pre-query snapshot.
  const obs::MetricsSnapshot after = MetricsRegistry::Global().Scrape();
  const std::vector<std::string> chain = {
      "fault.injected",          "fault.injected_corruptions",
      "tier.injected_faults",    "retry.attempts",
      "retry.retries",           "retry.recovered_ops",
      "trace.slow_queries",
  };
  for (const std::string& name : chain) {
    EXPECT_GT(counter_value(after, name), counter_value(before, name))
        << name << " did not increase";
  }
  for (const auto& [name, value] : before.counters) {
    EXPECT_GE(counter_value(after, name), value)
        << name << " went backwards";
  }
  const std::string prom = MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(prom.find("expbsi_tier_injected_faults"), std::string::npos);

  // And the query's own trace tree records the retried fetch.
  ASSERT_NE(stats.trace, nullptr);
  const std::string tree = stats.trace->ToText();
  EXPECT_NE(tree.find("adhoc_query_bsi"), std::string::npos);
  EXPECT_NE(tree.find("segment_execute"), std::string::npos);
  EXPECT_NE(tree.find("fetch_retries"), std::string::npos);
  const std::string slow = obs::LastSlowQueryTextForTesting();
  EXPECT_NE(slow.find("adhoc_query_bsi"), std::string::npos);
}

#endif  // !EXPBSI_NO_METRICS

}  // namespace
}  // namespace expbsi
