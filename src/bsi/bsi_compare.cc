#include "bsi/bsi_compare.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bit_util.h"
#include "common/scratch_arena.h"
#include "common/word_ops.h"
#include "obs/metrics.h"

namespace expbsi {
namespace bsi_compare {
namespace {

constexpr size_t kWords = WordOps::kWords;

// Chunks with at most this many both-present positions skip the word engine
// and probe values per position instead: reconstructing a handful of values
// with binary container probes is cheaper than sweeping 8 KiB buffers per
// slice, and the probe count rides the galloping array intersects that
// produced the (small) position set in the first place.
constexpr int kSparseCompareMax = 512;

// Monotone cursor over one BSI's slice container lists: At(s, key) returns
// the container of slice s in chunk `key` (or nullptr), amortized O(1) as
// long as keys are requested in ascending order. This is how the word
// kernels find each chunk's slice containers without per-chunk binary
// searches.
class SliceCursor {
 public:
  explicit SliceCursor(const Bsi& b) : b_(b), cur_(b.num_slices(), 0) {}

  const Container* At(int s, uint16_t key) {
    const RoaringBitmap& slice = b_.slice(s);
    int& c = cur_[s];
    while (c < slice.NumContainers() && slice.KeyAt(c) < key) ++c;
    if (c < slice.NumContainers() && slice.KeyAt(c) == key) {
      return &slice.ContainerAt(c);
    }
    return nullptr;
  }

 private:
  const Bsi& b_;
  std::vector<int> cur_;
};

// Read-only word view of a container: dense containers lend their bitmap
// payload directly; array/run containers expand into `scratch` (re-zeroed
// by WordsInto, so the lease can be reused across calls).
const uint64_t* WordsOf(const Container& c, ScratchArena::Lease& scratch) {
  return c.WordsInto(scratch.words());
}

void EmitWords(RoaringBitmap* out, uint16_t key, const uint64_t* words) {
  Container c = Container::FromWords(words);
  if (!c.IsEmpty()) out->AppendContainer(key, std::move(c));
}

// Reconstructs the value at position `low` from per-chunk slice containers.
uint64_t ProbeValue(const std::vector<const Container*>& slices, int n,
                    uint16_t low) {
  uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    if (slices[i] != nullptr && slices[i]->Contains(low)) {
      v |= uint64_t{1} << i;
    }
  }
  return v;
}

struct CompareCounters {
  uint64_t chunks_word = 0;
  uint64_t chunks_sparse = 0;
  uint64_t word_passes = 0;
  uint64_t probes = 0;

  void PublishCompare() const {
    static obs::Counter& m_calls = obs::GetCounter("kernel.compare_calls");
    static obs::Counter& m_word =
        obs::GetCounter("kernel.compare_chunks_word");
    static obs::Counter& m_sparse =
        obs::GetCounter("kernel.compare_chunks_sparse");
    static obs::Counter& m_passes =
        obs::GetCounter("kernel.compare_word_passes");
    static obs::Counter& m_probes = obs::GetCounter("kernel.compare_probes");
    m_calls.Add();
    m_word.Add(chunks_word);
    m_sparse.Add(chunks_sparse);
    m_passes.Add(word_passes);
    m_probes.Add(probes);
  }

  void PublishRange() const {
    static obs::Counter& m_calls = obs::GetCounter("kernel.range_calls");
    static obs::Counter& m_word = obs::GetCounter("kernel.range_chunks_word");
    static obs::Counter& m_sparse =
        obs::GetCounter("kernel.range_chunks_sparse");
    static obs::Counter& m_passes =
        obs::GetCounter("kernel.range_word_passes");
    static obs::Counter& m_probes = obs::GetCounter("kernel.range_probes");
    m_calls.Add();
    m_word.Add(chunks_word);
    m_sparse.Add(chunks_sparse);
    m_passes.Add(word_passes);
    m_probes.Add(probes);
  }
};

}  // namespace

RoaringBitmap Compare(const Bsi& x, const Bsi& y, CmpOp op) {
  RoaringBitmap out;
  if (x.IsEmpty() || y.IsEmpty()) return out;
  const WordOps& ops = ActiveWordOps();
  const RoaringBitmap& ex = x.existence();
  const RoaringBitmap& ey = y.existence();
  const int sx = x.num_slices();
  const int sy = y.num_slices();
  const int s = std::max(sx, sy);
  SliceCursor xcur(x);
  SliceCursor ycur(y);
  std::vector<const Container*> xc(s);
  std::vector<const Container*> yc(s);
  ScratchArena::Lease maskbuf, accbuf, xbuf, ybuf, resbuf;
  std::vector<uint16_t> hits;
  CompareCounters counters;

  int ia = 0;
  int ib = 0;
  while (ia < ex.NumContainers() && ib < ey.NumContainers()) {
    if (ex.KeyAt(ia) < ey.KeyAt(ib)) {
      ++ia;
      continue;
    }
    if (ey.KeyAt(ib) < ex.KeyAt(ia)) {
      ++ib;
      continue;
    }
    const uint16_t key = ex.KeyAt(ia);
    // Both-present mask for the chunk; And() gallops internally when the
    // container mix is skewed (big bitmap vs small array).
    Container both = Container::And(ex.ContainerAt(ia), ey.ContainerAt(ib));
    ++ia;
    ++ib;
    if (both.IsEmpty()) continue;
    for (int i = 0; i < s; ++i) {
      xc[i] = i < sx ? xcur.At(i, key) : nullptr;
      yc[i] = i < sy ? ycur.At(i, key) : nullptr;
    }

    if (both.Cardinality() <= kSparseCompareMax) {
      ++counters.chunks_sparse;
      counters.probes += static_cast<uint64_t>(both.Cardinality());
      hits.clear();
      both.ForEach([&](uint16_t v) {
        const uint64_t xv = ProbeValue(xc, sx, v);
        const uint64_t yv = ProbeValue(yc, sy, v);
        bool pass = false;
        switch (op) {
          case CmpOp::kLt:
            pass = xv < yv;
            break;
          case CmpOp::kLe:
            pass = xv <= yv;
            break;
          case CmpOp::kEq:
            pass = xv == yv;
            break;
          case CmpOp::kNe:
            pass = xv != yv;
            break;
        }
        if (pass) hits.push_back(v);
      });
      if (!hits.empty()) {
        out.AppendContainer(
            key, Container::FromSorted(hits.data(),
                                       static_cast<int>(hits.size())));
      }
      continue;
    }

    ++counters.chunks_word;
    const uint64_t* mask = WordsOf(both, maskbuf);
    uint64_t* acc = accbuf.words();
    if (op == CmpOp::kLt || op == CmpOp::kLe) {
      // Algorithm 1, ascending slices, all in word space. kLe runs the same
      // recurrence with the operands swapped (computing Gt) and complements
      // against the mask at the end.
      const bool swap = op == CmpOp::kLe;
      std::fill_n(acc, kWords, 0);
      for (int i = 0; i < s; ++i) {
        const Container* cx = swap ? yc[i] : xc[i];
        const Container* cy = swap ? xc[i] : yc[i];
        if (cx == nullptr && cy == nullptr) continue;
        ++counters.word_passes;
        if (cx == nullptr) {
          ops.or_pass(acc, WordsOf(*cy, ybuf));  // X^i = 0: L <- Y^i | L
        } else if (cy == nullptr) {
          ops.andnot_pass(acc, WordsOf(*cx, xbuf));  // Y^i = 0: L <- L & ~X^i
        } else {
          ops.lt_pass(acc, WordsOf(*cx, xbuf), WordsOf(*cy, ybuf));
        }
      }
      if (op == CmpOp::kLt) {
        ops.and_pass(acc, mask);
        EmitWords(&out, key, acc);
      } else {
        std::memcpy(resbuf.words(), mask, kWords * sizeof(uint64_t));
        ops.andnot_pass(resbuf.words(), acc);
        EmitWords(&out, key, resbuf.words());
      }
      continue;
    }

    // Algorithm 2/3: peel differing slices off the both-present mask, with
    // a chunk-level early exit the moment eq dies.
    std::memcpy(acc, mask, kWords * sizeof(uint64_t));
    bool alive = true;
    for (int i = 0; i < s && alive; ++i) {
      if (xc[i] == nullptr && yc[i] == nullptr) continue;
      ++counters.word_passes;
      if (xc[i] == nullptr) {
        alive = ops.andnot_pass(acc, WordsOf(*yc[i], ybuf));
      } else if (yc[i] == nullptr) {
        alive = ops.andnot_pass(acc, WordsOf(*xc[i], xbuf));
      } else {
        alive = ops.eq_pass(acc, WordsOf(*xc[i], xbuf), WordsOf(*yc[i], ybuf));
      }
    }
    if (op == CmpOp::kEq) {
      if (alive) EmitWords(&out, key, acc);
    } else {  // kNe = mask & ~eq
      if (!alive) {
        out.AppendContainer(key, std::move(both));
      } else {
        std::memcpy(resbuf.words(), mask, kWords * sizeof(uint64_t));
        ops.andnot_pass(resbuf.words(), acc);
        EmitWords(&out, key, resbuf.words());
      }
    }
  }
  counters.PublishCompare();
  return out;
}

RoaringBitmap Range(const Bsi& x, RangeOp op, uint64_t k) {
  RoaringBitmap out;
  if (x.IsEmpty()) return out;
  if (k == 0) {
    // Zero means absent: every present value is > 0.
    switch (op) {
      case RangeOp::kNe:
      case RangeOp::kGt:
      case RangeOp::kGe:
        return x.existence();
      default:
        return out;
    }
  }
  const int s = x.num_slices();
  if (BitWidth64(k) > s) {
    // k is above every representable value: all present values are < k.
    switch (op) {
      case RangeOp::kLt:
      case RangeOp::kLe:
      case RangeOp::kNe:
        return x.existence();
      default:
        return out;
    }
  }
  const WordOps& ops = ActiveWordOps();
  const bool need_lt = op == RangeOp::kLt || op == RangeOp::kLe;
  const bool need_gt = op == RangeOp::kGt || op == RangeOp::kGe;
  SliceCursor cur(x);
  std::vector<const Container*> sc(s);
  ScratchArena::Lease maskbuf, eqbuf, accbuf, sbuf, resbuf;
  std::vector<uint16_t> hits;
  CompareCounters counters;
  const RoaringBitmap& ex = x.existence();

  for (int c = 0; c < ex.NumContainers(); ++c) {
    const uint16_t key = ex.KeyAt(c);
    const Container& exc = ex.ContainerAt(c);
    for (int i = 0; i < s; ++i) sc[i] = cur.At(i, key);

    if (exc.Cardinality() <= kSparseCompareMax) {
      ++counters.chunks_sparse;
      counters.probes += static_cast<uint64_t>(exc.Cardinality());
      hits.clear();
      exc.ForEach([&](uint16_t v) {
        const uint64_t val = ProbeValue(sc, s, v);
        bool pass = false;
        switch (op) {
          case RangeOp::kEq:
            pass = val == k;
            break;
          case RangeOp::kNe:
            pass = val != k;
            break;
          case RangeOp::kLt:
            pass = val < k;
            break;
          case RangeOp::kLe:
            pass = val <= k;
            break;
          case RangeOp::kGt:
            pass = val > k;
            break;
          case RangeOp::kGe:
            pass = val >= k;
            break;
        }
        if (pass) hits.push_back(v);
      });
      if (!hits.empty()) {
        out.AppendContainer(
            key, Container::FromSorted(hits.data(),
                                       static_cast<int>(hits.size())));
      }
      continue;
    }

    // Top-down three-way partition in word space, tracking only the
    // accumulator the operator needs; early exit the moment eq dies.
    ++counters.chunks_word;
    const uint64_t* mask = WordsOf(exc, maskbuf);
    uint64_t* eq = eqbuf.words();
    std::memcpy(eq, mask, kWords * sizeof(uint64_t));
    uint64_t* acc = accbuf.words();  // lt for kLt/kLe, gt for kGt/kGe
    if (need_lt || need_gt) std::fill_n(acc, kWords, 0);
    bool alive = true;
    for (int i = s - 1; i >= 0 && alive; --i) {
      const uint64_t* sw = sc[i] != nullptr ? WordsOf(*sc[i], sbuf) : nullptr;
      if (((k >> i) & 1) != 0) {
        if (sw == nullptr) {
          // Slice is all-zero but k's bit is set: every survivor is < k.
          if (need_lt) ops.or_pass(acc, eq);
          alive = false;
          break;
        }
        ++counters.word_passes;
        alive = need_lt ? ops.scalar_one_pass(acc, eq, sw)
                        : ops.and_pass(eq, sw);
      } else {
        if (sw == nullptr) continue;  // all-zero slice, clear bit: no-op
        ++counters.word_passes;
        alive = need_gt ? ops.scalar_zero_pass(acc, eq, sw)
                        : ops.andnot_pass(eq, sw);
      }
    }
    switch (op) {
      case RangeOp::kLt:
      case RangeOp::kGt:
        EmitWords(&out, key, acc);
        break;
      case RangeOp::kLe:
      case RangeOp::kGe:
        if (alive) ops.or_pass(acc, eq);
        EmitWords(&out, key, acc);
        break;
      case RangeOp::kEq:
        if (alive) EmitWords(&out, key, eq);
        break;
      case RangeOp::kNe:
        if (!alive) {
          out.AppendContainer(key, exc);  // eq died: every position differs
        } else {
          std::memcpy(resbuf.words(), mask, kWords * sizeof(uint64_t));
          ops.andnot_pass(resbuf.words(), eq);
          EmitWords(&out, key, resbuf.words());
        }
        break;
    }
  }
  counters.PublishRange();
  return out;
}

RoaringBitmap RangeBetween(const Bsi& x, uint64_t lo, uint64_t hi) {
  RoaringBitmap out;
  if (x.IsEmpty() || hi == 0) return out;
  // Degenerate bounds collapse to a single-sided scan.
  if (lo <= 1) return Range(x, RangeOp::kLe, hi);  // values are >= 1
  const int s = x.num_slices();
  if (BitWidth64(lo) > s) return out;  // no value reaches lo
  if (BitWidth64(hi) > s) return Range(x, RangeOp::kGe, lo);

  const WordOps& ops = ActiveWordOps();
  SliceCursor cur(x);
  std::vector<const Container*> sc(s);
  ScratchArena::Lease maskbuf, eqlobuf, eqhibuf, ltlobuf, gthibuf, sbuf,
      resbuf;
  std::vector<uint16_t> hits;
  CompareCounters counters;
  const RoaringBitmap& ex = x.existence();

  for (int c = 0; c < ex.NumContainers(); ++c) {
    const uint16_t key = ex.KeyAt(c);
    const Container& exc = ex.ContainerAt(c);
    for (int i = 0; i < s; ++i) sc[i] = cur.At(i, key);

    if (exc.Cardinality() <= kSparseCompareMax) {
      ++counters.chunks_sparse;
      counters.probes += static_cast<uint64_t>(exc.Cardinality());
      hits.clear();
      exc.ForEach([&](uint16_t v) {
        const uint64_t val = ProbeValue(sc, s, v);
        if (lo <= val && val <= hi) hits.push_back(v);
      });
      if (!hits.empty()) {
        out.AppendContainer(
            key, Container::FromSorted(hits.data(),
                                       static_cast<int>(hits.size())));
      }
      continue;
    }

    // Single-pass three-way partition against BOTH bounds: track
    // (lt_lo, eq_lo) against lo and (gt_hi, eq_hi) against hi down the same
    // slice walk, then combine as mask & ~lt_lo & ~gt_hi.
    ++counters.chunks_word;
    const uint64_t* mask = WordsOf(exc, maskbuf);
    uint64_t* eq_lo = eqlobuf.words();
    uint64_t* eq_hi = eqhibuf.words();
    uint64_t* lt_lo = ltlobuf.words();
    uint64_t* gt_hi = gthibuf.words();
    std::memcpy(eq_lo, mask, kWords * sizeof(uint64_t));
    std::memcpy(eq_hi, mask, kWords * sizeof(uint64_t));
    std::fill_n(lt_lo, kWords, 0);
    std::fill_n(gt_hi, kWords, 0);
    bool alive_lo = true;
    bool alive_hi = true;
    for (int i = s - 1; i >= 0 && (alive_lo || alive_hi); --i) {
      const uint64_t* sw = sc[i] != nullptr ? WordsOf(*sc[i], sbuf) : nullptr;
      if (alive_lo) {
        if (((lo >> i) & 1) != 0) {
          if (sw == nullptr) {
            ops.or_pass(lt_lo, eq_lo);
            alive_lo = false;
          } else {
            ++counters.word_passes;
            alive_lo = ops.scalar_one_pass(lt_lo, eq_lo, sw);
          }
        } else if (sw != nullptr) {
          ++counters.word_passes;
          alive_lo = ops.andnot_pass(eq_lo, sw);  // gt_lo is never needed
        }
      }
      if (alive_hi) {
        if (((hi >> i) & 1) != 0) {
          if (sw == nullptr) {
            alive_hi = false;  // eq_hi &= 0; gt_hi gains nothing
          } else {
            ++counters.word_passes;
            alive_hi = ops.and_pass(eq_hi, sw);  // lt_hi is never needed
          }
        } else if (sw != nullptr) {
          ++counters.word_passes;
          alive_hi = ops.scalar_zero_pass(gt_hi, eq_hi, sw);
        }
      }
    }
    ops.mask_andnot2_pass(resbuf.words(), mask, lt_lo, gt_hi);
    EmitWords(&out, key, resbuf.words());
  }
  counters.PublishRange();
  return out;
}

}  // namespace bsi_compare
}  // namespace expbsi
