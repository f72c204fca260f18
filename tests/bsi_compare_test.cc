#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "bsi/bsi.h"
#include "bsi/bsi_aggregate.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "tests/test_util.h"

namespace expbsi {
namespace {

using testing_util::RandomValueMap;
using testing_util::ToPairVector;

using ValueMap = std::map<uint32_t, uint64_t>;

std::set<uint32_t> ToSet(const RoaringBitmap& bm) {
  std::set<uint32_t> out;
  bm.ForEach([&out](uint32_t v) { out.insert(v); });
  return out;
}

TEST(BsiCompareBasic, AlgorithmSemanticsRequireBothPresent) {
  // X has 10 at position 1 only; Y has 5 at positions 1 and 2.
  Bsi x = Bsi::FromPairs({{1, 10}});
  Bsi y = Bsi::FromPairs({{1, 5}, {2, 5}});
  // Position 2 exists only in Y: no comparison result there.
  EXPECT_EQ(ToSet(Bsi::Lt(x, y)), std::set<uint32_t>{});
  EXPECT_EQ(ToSet(Bsi::Gt(x, y)), std::set<uint32_t>{1});
  EXPECT_EQ(ToSet(Bsi::Ne(x, y)), std::set<uint32_t>{1});
  EXPECT_EQ(ToSet(Bsi::Eq(x, y)), std::set<uint32_t>{});
  EXPECT_EQ(ToSet(Bsi::Le(x, y)), std::set<uint32_t>{});
  EXPECT_EQ(ToSet(Bsi::Ge(x, y)), std::set<uint32_t>{1});
}

TEST(BsiCompareBasic, EqualValues) {
  Bsi x = Bsi::FromPairs({{1, 7}, {2, 9}});
  Bsi y = Bsi::FromPairs({{1, 7}, {2, 8}});
  EXPECT_EQ(ToSet(Bsi::Eq(x, y)), std::set<uint32_t>{1});
  EXPECT_EQ(ToSet(Bsi::Ne(x, y)), std::set<uint32_t>{2});
  EXPECT_EQ(ToSet(Bsi::Le(x, y)), std::set<uint32_t>{1});
  EXPECT_EQ(ToSet(Bsi::Ge(x, y)), (std::set<uint32_t>{1, 2}));
}

TEST(BsiCompareBasic, DifferentSliceCounts) {
  // X values need 3 slices, Y values need 10: the shorter operand's missing
  // slices count as zeros.
  Bsi x = Bsi::FromPairs({{1, 7}, {2, 7}});
  Bsi y = Bsi::FromPairs({{1, 700}, {2, 3}});
  EXPECT_EQ(ToSet(Bsi::Lt(x, y)), std::set<uint32_t>{1});
  EXPECT_EQ(ToSet(Bsi::Gt(x, y)), std::set<uint32_t>{2});
}

class BsiCompareTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    // Small value range so equality cases are common.
    map_x_ = RandomValueMap(rng, 4000, 30000, 64);
    map_y_ = RandomValueMap(rng, 4000, 30000, 64);
    x_ = Bsi::FromPairs(ToPairVector(map_x_));
    y_ = Bsi::FromPairs(ToPairVector(map_y_));
  }

  // Positions present in both maps where pred(x, y) holds.
  template <typename Pred>
  std::set<uint32_t> Expected(Pred pred) const {
    std::set<uint32_t> out;
    for (const auto& [pos, xv] : map_x_) {
      auto it = map_y_.find(pos);
      if (it != map_y_.end() && pred(xv, it->second)) out.insert(pos);
    }
    return out;
  }

  ValueMap map_x_, map_y_;
  Bsi x_, y_;
};

TEST_P(BsiCompareTest, AllOperators) {
  EXPECT_EQ(ToSet(Bsi::Lt(x_, y_)),
            Expected([](uint64_t a, uint64_t b) { return a < b; }));
  EXPECT_EQ(ToSet(Bsi::Le(x_, y_)),
            Expected([](uint64_t a, uint64_t b) { return a <= b; }));
  EXPECT_EQ(ToSet(Bsi::Gt(x_, y_)),
            Expected([](uint64_t a, uint64_t b) { return a > b; }));
  EXPECT_EQ(ToSet(Bsi::Ge(x_, y_)),
            Expected([](uint64_t a, uint64_t b) { return a >= b; }));
  EXPECT_EQ(ToSet(Bsi::Eq(x_, y_)),
            Expected([](uint64_t a, uint64_t b) { return a == b; }));
  EXPECT_EQ(ToSet(Bsi::Ne(x_, y_)),
            Expected([](uint64_t a, uint64_t b) { return a != b; }));
}

TEST_P(BsiCompareTest, PartitionProperty) {
  // Lt, Eq, Gt partition the both-present positions.
  RoaringBitmap both =
      RoaringBitmap::And(x_.existence(), y_.existence());
  RoaringBitmap lt = Bsi::Lt(x_, y_);
  RoaringBitmap eq = Bsi::Eq(x_, y_);
  RoaringBitmap gt = Bsi::Gt(x_, y_);
  EXPECT_EQ(lt.Cardinality() + eq.Cardinality() + gt.Cardinality(),
            both.Cardinality());
  EXPECT_FALSE(RoaringBitmap::Intersects(lt, eq));
  EXPECT_FALSE(RoaringBitmap::Intersects(lt, gt));
  EXPECT_FALSE(RoaringBitmap::Intersects(eq, gt));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BsiCompareTest,
                         ::testing::Values(31, 32, 33, 34, 35));

// --- Range searches against constants --------------------------------------

struct RangeCase {
  uint64_t seed;
  uint64_t k;
  uint64_t max_value;
};

class BsiRangeTest : public ::testing::TestWithParam<RangeCase> {};

TEST_P(BsiRangeTest, AllRangeOperators) {
  const RangeCase& param = GetParam();
  Rng rng(param.seed);
  ValueMap values = RandomValueMap(rng, 5000, 40000, param.max_value);
  Bsi bsi = Bsi::FromPairs(ToPairVector(values));
  const uint64_t k = param.k;

  auto expected = [&values](auto pred) {
    std::set<uint32_t> out;
    for (const auto& [pos, v] : values) {
      if (pred(v)) out.insert(pos);
    }
    return out;
  };
  EXPECT_EQ(ToSet(bsi.RangeEq(k)),
            expected([k](uint64_t v) { return v == k; }));
  EXPECT_EQ(ToSet(bsi.RangeNe(k)),
            expected([k](uint64_t v) { return v != k; }));
  EXPECT_EQ(ToSet(bsi.RangeLt(k)),
            expected([k](uint64_t v) { return v < k; }));
  EXPECT_EQ(ToSet(bsi.RangeLe(k)),
            expected([k](uint64_t v) { return v <= k; }));
  EXPECT_EQ(ToSet(bsi.RangeGt(k)),
            expected([k](uint64_t v) { return v > k; }));
  EXPECT_EQ(ToSet(bsi.RangeGe(k)),
            expected([k](uint64_t v) { return v >= k; }));
  EXPECT_EQ(ToSet(bsi.RangeBetween(k / 2, k)),
            expected([k](uint64_t v) { return v >= k / 2 && v <= k; }));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BsiRangeTest,
    ::testing::Values(RangeCase{41, 1, 16},          // boundary small
                      RangeCase{42, 8, 16},          // mid
                      RangeCase{43, 16, 16},         // max
                      RangeCase{44, 100, 16},        // k above all values
                      RangeCase{45, 500, 100000},    // sparse wide range
                      RangeCase{46, 99999, 100000},  // near max
                      RangeCase{47, 0, 50}));        // k = 0

TEST(BsiRangeEdge, ZeroConstantSemantics) {
  Bsi bsi = Bsi::FromPairs({{1, 3}, {2, 8}});
  // Every present value is > 0 and != 0; none is < 0, <= 0 or == 0.
  EXPECT_EQ(bsi.RangeGt(0).Cardinality(), 2u);
  EXPECT_EQ(bsi.RangeNe(0).Cardinality(), 2u);
  EXPECT_TRUE(bsi.RangeEq(0).IsEmpty());
  EXPECT_TRUE(bsi.RangeLt(0).IsEmpty());
  EXPECT_TRUE(bsi.RangeLe(0).IsEmpty());
  EXPECT_EQ(bsi.RangeGe(0).Cardinality(), 2u);
}

TEST(BsiRangeEdge, BetweenDegenerateBounds) {
  Bsi bsi = Bsi::FromPairs({{1, 3}, {2, 8}, {3, 200}});
  // [0, 0]: no stored value is zero (zero == absent).
  EXPECT_TRUE(bsi.RangeBetween(0, 0).IsEmpty());
  // [0, hi] degrades to <= hi.
  EXPECT_EQ(ToSet(bsi.RangeBetween(0, 8)), (std::set<uint32_t>{1, 2}));
  // lo == hi is an exact match.
  EXPECT_EQ(ToSet(bsi.RangeBetween(8, 8)), std::set<uint32_t>{2});
  // lo wider than the slice count: nothing can qualify.
  EXPECT_TRUE(bsi.RangeBetween(uint64_t{1} << 40, uint64_t{1} << 41)
                  .IsEmpty());
  // hi wider than the slice count degrades to >= lo.
  EXPECT_EQ(ToSet(bsi.RangeBetween(4, ~uint64_t{0})),
            (std::set<uint32_t>{2, 3}));
  // Full-range bounds select everything present.
  EXPECT_EQ(ToSet(bsi.RangeBetween(0, ~uint64_t{0})),
            (std::set<uint32_t>{1, 2, 3}));
}

// One side a dense block (bitset containers), the other a sparse scatter
// (array containers) sharing the same chunks: the word kernels must take the
// dense path on one operand and expand/probe the other.
TEST(BsiCompareBasic, MixedDenseSparseContainers) {
  Rng rng(77);
  ValueMap dense_map, sparse_map;
  for (uint32_t pos = 0; pos < 30000; ++pos) {
    if (rng.NextBernoulli(0.8)) dense_map[pos] = 1 + rng.NextBounded(64);
  }
  for (int i = 0; i < 200; ++i) {
    sparse_map[static_cast<uint32_t>(rng.NextBounded(30000))] =
        1 + rng.NextBounded(64);
  }
  Bsi dense = Bsi::FromPairs(ToPairVector(dense_map));
  Bsi sparse = Bsi::FromPairs(ToPairVector(sparse_map));

  const auto expected = [&](auto pred) {
    std::set<uint32_t> out;
    for (const auto& [pos, sv] : sparse_map) {
      auto it = dense_map.find(pos);
      if (it != dense_map.end() && pred(it->second, sv)) out.insert(pos);
    }
    return out;
  };
  EXPECT_EQ(ToSet(Bsi::Lt(dense, sparse)),
            expected([](uint64_t a, uint64_t b) { return a < b; }));
  EXPECT_EQ(ToSet(Bsi::Eq(dense, sparse)),
            expected([](uint64_t a, uint64_t b) { return a == b; }));
  // Swapped argument order flips which operand drives the sparse probe.
  EXPECT_EQ(ToSet(Bsi::Lt(sparse, dense)),
            expected([](uint64_t a, uint64_t b) { return b < a; }));
}

// Lt/Eq/Ne/Le and RangeBetween on a workload with planted equalities and
// cross-slice differences, against sets computed directly from the values.
TEST(BsiCompareBasic, PlantedEqualitiesMatchExpectedSets) {
  Rng rng(123);
  ValueMap mx = RandomValueMap(rng, 6000, 50000, 64);
  ValueMap my = RandomValueMap(rng, 6000, 50000, 64);
  // Plant exact equalities so Eq is non-trivial.
  int planted = 0;
  for (const auto& [pos, v] : mx) {
    if (my.count(pos) && ++planted % 3 == 0) my[pos] = v;
  }
  Bsi x = Bsi::FromPairs(ToPairVector(mx));
  Bsi y = Bsi::FromPairs(ToPairVector(my));

  const auto expected = [&](auto pred) {
    std::set<uint32_t> out;
    for (const auto& [pos, xv] : mx) {
      auto it = my.find(pos);
      if (it != my.end() && pred(xv, it->second)) out.insert(pos);
    }
    return out;
  };
  const std::set<uint32_t> eq =
      expected([](uint64_t a, uint64_t b) { return a == b; });
  ASSERT_FALSE(eq.empty());
  EXPECT_EQ(ToSet(Bsi::Lt(x, y)),
            expected([](uint64_t a, uint64_t b) { return a < b; }));
  EXPECT_EQ(ToSet(Bsi::Eq(x, y)), eq);
  EXPECT_EQ(ToSet(Bsi::Ne(x, y)),
            expected([](uint64_t a, uint64_t b) { return a != b; }));
  EXPECT_EQ(ToSet(Bsi::Le(x, y)),
            expected([](uint64_t a, uint64_t b) { return a <= b; }));
  std::set<uint32_t> between;
  for (const auto& [pos, v] : mx) {
    if (10 <= v && v <= 40) between.insert(pos);
  }
  EXPECT_EQ(ToSet(x.RangeBetween(10, 40)), between);
}

TEST(BsiRangeEdge, PaperFilterExample) {
  // §4.1.2: select expose info of units first exposed between the 2nd and
  // 5th day: bucket * (offset >= 2) * (offset <= 5).
  Bsi offset = Bsi::FromValues({0, 1, 2, 3, 4, 5, 6, 7});  // pos 0 absent
  RoaringBitmap mask = offset.RangeBetween(2, 5);
  EXPECT_EQ(ToSet(mask), (std::set<uint32_t>{2, 3, 4, 5}));
  Bsi filtered = Bsi::MultiplyByBinary(offset, mask);
  EXPECT_EQ(filtered.Get(2), 2u);
  EXPECT_EQ(filtered.Get(5), 5u);
  EXPECT_FALSE(filtered.Exists(6));
}

}  // namespace
}  // namespace expbsi
