// Ablation: multi-operand kernels (CSA sumBSI, lazy union accumulation) vs
// pairwise-chain folds, on the workloads the paper's wins reduce to -- the
// Fig. 6 pre-aggregate sum over N days and the Table 6 per-user multi-day
// aggregation. The library has one kernel per operation; the pairwise
// baseline is the slice-by-slice ripple-carry fold defined below, built
// only from public RoaringBitmap ops. Reports time per op AND heap
// allocation churn per op (this binary replaces global operator new to
// count every allocation), since the pairwise chain's cost is mostly
// re-materializing containers.
//
// Machine-readable output: one BENCHJSON line per measurement,
//   BENCHJSON {"op": ..., "ns_per_op": ..., "bytes_per_op": ...,
//              "allocs_per_op": ...}
// scraped by scripts/run_benches.sh into BENCH_pr2.json.

#include "bench/alloc_counter.h"  // must precede use of new/delete

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bsi/bsi_aggregate.h"
#include "common/bit_util.h"
#include "common/rng.h"
#include "common/timer.h"

using namespace expbsi;

namespace {

// --- Pairwise baseline ------------------------------------------------------

const RoaringBitmap& SliceOrEmpty(const Bsi& x, int i) {
  static const RoaringBitmap* empty = new RoaringBitmap();
  return i < x.num_slices() ? x.slice(i) : *empty;
}

// Slice-by-slice ripple-carry add with three allocating container ops per
// slice: sum = x ^ y ^ carry; carry' = (x & y) | ((x ^ y) & carry).
Bsi AddPairwise(const Bsi& x, const Bsi& y) {
  if (x.IsEmpty()) return y;
  if (y.IsEmpty()) return x;
  const int s = std::max(x.num_slices(), y.num_slices());
  std::vector<RoaringBitmap> slices;
  slices.reserve(s + 1);
  RoaringBitmap carry;
  for (int i = 0; i < s; ++i) {
    const RoaringBitmap& xi = SliceOrEmpty(x, i);
    const RoaringBitmap& yi = SliceOrEmpty(y, i);
    RoaringBitmap xy = RoaringBitmap::Xor(xi, yi);
    RoaringBitmap next_carry = RoaringBitmap::Or(
        RoaringBitmap::And(xi, yi), RoaringBitmap::And(xy, carry));
    slices.push_back(RoaringBitmap::Xor(xy, carry));
    carry = std::move(next_carry);
  }
  if (!carry.IsEmpty()) slices.push_back(std::move(carry));
  return Bsi::FromSlices(std::move(slices),
                         RoaringBitmap::Or(x.existence(), y.existence()));
}

Bsi SumBsiPairwise(const std::vector<const Bsi*>& inputs) {
  Bsi acc;
  for (const Bsi* input : inputs) acc = AddPairwise(acc, *input);
  return acc;
}

RoaringBitmap DistinctPosPairwise(const std::vector<const Bsi*>& inputs) {
  RoaringBitmap out;
  for (const Bsi* input : inputs) out.OrInPlace(input->existence());
  return out;
}

// Shift-add w * X per input, then a pairwise fold of the terms.
Bsi WeightedSumBsiPairwise(const std::vector<WeightedBsi>& inputs) {
  Bsi acc;
  for (const WeightedBsi& input : inputs) {
    Bsi term;
    for (uint64_t w = input.weight; w != 0; w &= w - 1) {
      term = AddPairwise(term,
                         Bsi::ShiftLeft(*input.bsi, CountTrailingZeros64(w)));
    }
    acc = AddPairwise(acc, term);
  }
  return acc;
}

// --- Workloads --------------------------------------------------------------

// Per-day metric BSIs in the Fig. 6 shape: a fraction of users participates
// each day with a zipf-ish small value.
std::vector<Bsi> MakeDailyBsis(uint64_t users, int days, double p) {
  Rng rng(20260805);
  std::vector<Bsi> out;
  out.reserve(days);
  for (int d = 0; d < days; ++d) {
    std::vector<std::pair<uint32_t, uint64_t>> pairs;
    for (uint32_t pos = 0; pos < users; ++pos) {
      if (rng.NextBernoulli(p)) {
        pairs.emplace_back(pos, 1 + rng.NextBounded(500));
      }
    }
    out.push_back(Bsi::FromPairs(std::move(pairs)));
  }
  return out;
}

// Daily visitor BSIs in the scorecard's strategy-unique-visitors shape: a
// sparse slice of a wide position universe is present each day (binary
// metric, value 1), so the existences are array containers spread over many
// chunks. This is the union workload where the pairwise chain re-merges a
// growing array per chunk per day while the lazy accumulator expands each
// chunk exactly once.
std::vector<Bsi> MakeSparseVisitorBsis(uint64_t universe, int days,
                                       double p) {
  Rng rng(77);
  std::vector<Bsi> out;
  out.reserve(days);
  for (int d = 0; d < days; ++d) {
    std::vector<std::pair<uint32_t, uint64_t>> pairs;
    for (uint32_t pos = 0; pos < universe; ++pos) {
      if (rng.NextBernoulli(p)) pairs.emplace_back(pos, 1);
    }
    out.push_back(Bsi::FromPairs(std::move(pairs)));
  }
  return out;
}

// Table 6's metric B workload: the two-day sum of Table 5's sparse metric
// (about 6.7% of users take part each day, values in (0, 50]) over 16
// segments of users / 16 positions each, as bench/table5_table6_compute
// lays it out. At the pinned CI scale every slice is a small array
// container, so the kernel's per-call cost, not its word passes, decides
// this row.
constexpr int kMetricBSegments = 16;

std::vector<std::pair<Bsi, Bsi>> MakeSparseMetricBSegments(uint64_t users) {
  Rng rng(9002);
  const auto day = [&rng](uint64_t positions) {
    std::vector<std::pair<uint32_t, uint64_t>> pairs;
    for (uint32_t pos = 0; pos < positions; ++pos) {
      if (rng.NextBernoulli(0.067)) {
        pairs.emplace_back(pos, 1 + rng.NextBounded(50));
      }
    }
    return Bsi::FromPairs(std::move(pairs));
  };
  std::vector<std::pair<Bsi, Bsi>> out;
  for (int seg = 0; seg < kMetricBSegments; ++seg) {
    Bsi first = day(users / kMetricBSegments);  // day 1 draws first
    out.emplace_back(std::move(first), day(users / kMetricBSegments));
  }
  return out;
}

struct Measurement {
  double ns_per_op = 0;
  double bytes_per_op = 0;
  double allocs_per_op = 0;
};

// Times fn() over `reps` runs (after one warm-up that also primes the
// scratch arena) and averages both wall time and allocation churn.
template <typename Fn>
Measurement Measure(int reps, Fn&& fn) {
  fn();  // warm-up: thread-local scratch buffers get pooled here
  const allocstats::Snapshot before = allocstats::Take();
  Stopwatch watch;
  for (int r = 0; r < reps; ++r) fn();
  const double secs = watch.ElapsedSeconds();
  const allocstats::Snapshot delta =
      allocstats::Delta(before, allocstats::Take());
  Measurement m;
  m.ns_per_op = secs * 1e9 / reps;
  m.bytes_per_op = static_cast<double>(delta.bytes) / reps;
  m.allocs_per_op = static_cast<double>(delta.allocs) / reps;
  return m;
}

void Report(const std::string& op, const Measurement& m) {
  std::printf("%-28s %12.2f ms %14s %10.0f allocs\n", op.c_str(),
              m.ns_per_op / 1e6, bench_util::HumanBytes(m.bytes_per_op).c_str(),
              m.allocs_per_op);
  std::printf("BENCHJSON {\"op\": \"%s\", \"ns_per_op\": %.0f, "
              "\"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}\n",
              op.c_str(), m.ns_per_op, m.bytes_per_op, m.allocs_per_op);
}

}  // namespace

int main() {
  bench_util::OraclePreflight();
  const uint64_t users = bench_util::ScaledUsers(200000);
  const int kDays = 28;

  bench_util::PrintBanner(
      "Ablation: multi-operand kernels vs pairwise chains",
      "sumBSI over N days (Fig. 6 / Table 6) is the platform's hot loop");
  std::printf("scale: %llu positions/day, %d days\n\n",
              static_cast<unsigned long long>(users), kDays);

  const std::vector<Bsi> days = MakeDailyBsis(users, kDays, 0.4);
  std::vector<const Bsi*> all_days;
  for (const Bsi& b : days) all_days.push_back(&b);
  const std::vector<const Bsi*> eight_days(all_days.begin(),
                                           all_days.begin() + 8);

  // The two paths under comparison must agree bit for bit on this exact
  // workload, or the timings below are meaningless.
  if (!(SumBsi(all_days) == SumBsiPairwise(all_days)) ||
      !(DistinctPos(all_days) == DistinctPosPairwise(all_days))) {
    std::printf("KERNEL MISMATCH: CSA/lazy disagrees with pairwise!\n");
    return 1;
  }

  std::printf("%-28s %15s %14s %17s\n", "op", "time/op", "alloc/op",
              "allocs/op");

  // N-operand sumBSI, N = 8 (the acceptance-criteria workload) and N = 28.
  const Measurement csa8 =
      Measure(5, [&] { SumBsi(eight_days).Sum(); });
  Report("sum_bsi_csa_n8", csa8);
  const Measurement pair8 =
      Measure(5, [&] { SumBsiPairwise(eight_days).Sum(); });
  Report("sum_bsi_pairwise_n8", pair8);

  const Measurement csa28 = Measure(3, [&] { SumBsi(all_days).Sum(); });
  Report("sum_bsi_csa_n28", csa28);
  const Measurement pair28 =
      Measure(3, [&] { SumBsiPairwise(all_days).Sum(); });
  Report("sum_bsi_pairwise_n28", pair28);

  // Multi-way union (distinctPos across 28 days of existence bitmaps), on
  // the dense metric existences above and on sparse visitor masks spread
  // over an 8x wider position universe.
  const Measurement lazy =
      Measure(5, [&] { DistinctPos(all_days).Cardinality(); });
  Report("distinct_pos_lazy_n28", lazy);
  const Measurement pairwise_or =
      Measure(5, [&] { DistinctPosPairwise(all_days).Cardinality(); });
  Report("distinct_pos_pairwise_n28", pairwise_or);

  const std::vector<Bsi> visitors =
      MakeSparseVisitorBsis(users * 8, kDays, 0.015);
  std::vector<const Bsi*> visitor_days;
  for (const Bsi& b : visitors) visitor_days.push_back(&b);
  if (!(DistinctPos(visitor_days) == DistinctPosPairwise(visitor_days))) {
    std::printf("KERNEL MISMATCH: lazy union disagrees on sparse masks!\n");
    return 1;
  }
  const Measurement lazy_sparse =
      Measure(5, [&] { DistinctPos(visitor_days).Cardinality(); });
  Report("distinct_pos_lazy_sparse_n28", lazy_sparse);
  const Measurement pairwise_sparse =
      Measure(5, [&] { DistinctPosPairwise(visitor_days).Cardinality(); });
  Report("distinct_pos_pairwise_sparse_n28", pairwise_sparse);

  // Weighted sum, N = 8 (preference-query / covariance shapes).
  std::vector<WeightedBsi> weighted;
  for (int i = 0; i < 8; ++i) {
    weighted.push_back({&days[i], static_cast<uint64_t>(1 + 3 * i)});
  }
  if (!(WeightedSumBsi(weighted) == WeightedSumBsiPairwise(weighted))) {
    std::printf("KERNEL MISMATCH: weighted CSA disagrees with pairwise!\n");
    return 1;
  }
  const Measurement wcsa =
      Measure(5, [&] { WeightedSumBsi(weighted).Sum(); });
  Report("weighted_sum_csa_n8", wcsa);
  const Measurement wpair =
      Measure(5, [&] { WeightedSumBsiPairwise(weighted).Sum(); });
  Report("weighted_sum_pairwise_n8", wpair);

  // Two-operand sparse adds in metric B's shape (Bsi::Add is the CSA kernel).
  const std::vector<std::pair<Bsi, Bsi>> metric_b =
      MakeSparseMetricBSegments(users);
  for (const auto& [day1, day2] : metric_b) {
    if (!(Bsi::Add(day1, day2) == AddPairwise(day1, day2))) {
      std::printf("KERNEL MISMATCH: CSA add disagrees on sparse metric B!\n");
      return 1;
    }
  }
  const Measurement add_b = Measure(20, [&] {
    for (const auto& [day1, day2] : metric_b) Bsi::Add(day1, day2).Sum();
  });
  Report("add_csa_sparse_metric_b", add_b);
  const Measurement add_b_pair = Measure(20, [&] {
    for (const auto& [day1, day2] : metric_b) AddPairwise(day1, day2).Sum();
  });
  Report("add_pairwise_sparse_metric_b", add_b_pair);

  std::printf("\nspeedups (pairwise / multi-operand):\n");
  std::printf("  sum n=8:    %5.2fx   sum n=28:  %5.2fx\n",
              pair8.ns_per_op / csa8.ns_per_op,
              pair28.ns_per_op / csa28.ns_per_op);
  std::printf("  union n=28: %5.2fx   wsum n=8:  %5.2fx\n",
              pairwise_or.ns_per_op / lazy.ns_per_op,
              wpair.ns_per_op / wcsa.ns_per_op);
  std::printf("  sparse union n=28: %5.2fx, %.1fx fewer bytes allocated\n",
              pairwise_sparse.ns_per_op / lazy_sparse.ns_per_op,
              pairwise_sparse.bytes_per_op /
                  (lazy_sparse.bytes_per_op > 0 ? lazy_sparse.bytes_per_op
                                                : 1.0));
  std::printf("  sparse add n=2 x %d segments (metric B): %5.2fx\n",
              kMetricBSegments,
              add_b_pair.ns_per_op / add_b.ns_per_op);
  bench_util::EmitRegistrySnapshot("ablation_multiop_kernels");
  return 0;
}
