// Exact batched top-k for materialized candidate rows.
//
// The fused Var#1 path sees candidates one at a time, which is why the paper
// selects with a max-heap (§2.2, Table 3). The variants that materialize a
// query's distance row before selecting (Var#5 per reference panel, Var#6
// over all n) are free of that constraint: they can pick the k winners of a
// long row in a few linear passes instead of offering every candidate to the
// heap in turn.
//
// batch_select() leaves a row holding exactly the entries sequential
// insertion would: the k smallest (distance, id) pairs (heap::pair_less)
// among the row's current entries and the candidates the accept rule admits
// (finite and below the root, heap::pair_accepts). That set does not depend
// on arrival order (docs/CONTRACT.md), so sorted rows are bitwise-identical;
// only the physical heap layout differs. (One corner is no set property:
// −0.0 and +0.0 under the same id are one entry, and which bits survive
// depends on arrival order and layout even between sequential rows. No
// kernel distance is −0.0.) The method:
//
//   1. filter  — a vectorizable compare against the row's root skips blocks
//                of candidates none of which can enter the row; the
//                survivors of the full accept rule are compacted to scratch;
//   2. gather  — the row's finite entries join the survivors; its +inf
//                sentinels are set aside, since they only pad a row that
//                ends with fewer than k finite entries;
//   3. select  — radix select on an order-preserving integer key: a
//                kBatchBuckets-wide histogram over the active key range
//                finds the bucket holding the k-th entry, everything below
//                it wins, everything above it loses, and only the boundary
//                bucket is refined, by distance key first and then by id;
//   4. rebuild — the k winners are written back and heapified
//                (binary_build / quad_build).
//
// A row no candidate of which passes the filter is left as it was.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "gsknn/common/macros.hpp"
#include "gsknn/select/heap.hpp"
#include "gsknn/select/neighbor_table.hpp"

namespace gsknn::heap {

/// Histogram width of one radix pass (10 key bits per pass).
inline constexpr int kBatchBucketBits = 10;
inline constexpr int kBatchBuckets = 1 << kBatchBucketBits;

/// Elements batch_select needs in each of its two scratch arrays (distances
/// and ids) for a `len`-candidate row into a k-entry heap.
constexpr std::size_t batch_scratch_len(int len, int k) {
  return static_cast<std::size_t>(len) + static_cast<std::size_t>(k);
}

namespace batch_detail {

template <typename T>
using KeyOf = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

/// Order-preserving unsigned key of a non-NaN distance: a < b gives
/// key(a) < key(b) and a == b gives key(a) == key(b) (adding +0 folds −0
/// into +0, which compares equal to it).
template <typename T>
GSKNN_ALWAYS_INLINE KeyOf<T> dist_key(T d) {
  using U = KeyOf<T>;
  constexpr U kSign = U(1) << (8 * sizeof(U) - 1);
  const U u = std::bit_cast<U>(static_cast<T>(d + T(0)));
  return (u & kSign) != 0 ? static_cast<U>(~u) : static_cast<U>(u | kSign);
}

/// Order-preserving unsigned key of an id.
GSKNN_ALWAYS_INLINE std::uint32_t id_key(int x) {
  return static_cast<std::uint32_t>(x) ^ 0x80000000u;
}

/// Where the winners go: slot `o` of a heap row in binary or padded 4-ary
/// physical layout.
template <typename T>
struct RowOut {
  T* dist;
  int* id;
  bool quad;
  int o = 0;

  GSKNN_ALWAYS_INLINE int slot() const { return quad ? quad_phys(o) : o; }
  GSKNN_ALWAYS_INLINE void emit(T d, int x) {
    const int p = slot();
    dist[p] = d;
    id[p] = x;
    ++o;
  }
};

/// Distance-key range of sd[0, cnt): min/max over the values in eight
/// independent lanes (so the reduction vectorizes), then keyed — the key is
/// monotone, so the keys of the extremes are the extreme keys.
template <typename T>
GSKNN_ALWAYS_INLINE void dist_key_range(const T* GSKNN_RESTRICT sd, int cnt,
                                        KeyOf<T>& kmin, KeyOf<T>& kmax) {
  constexpr int kLanes = 8;
  T lo[kLanes], hi[kLanes];
  for (int t = 0; t < kLanes; ++t) lo[t] = hi[t] = sd[0];
  int i = 0;
  for (; i + kLanes <= cnt; i += kLanes) {
    for (int t = 0; t < kLanes; ++t) {
      const T v = sd[i + t];
      lo[t] = v < lo[t] ? v : lo[t];
      hi[t] = hi[t] < v ? v : hi[t];
    }
  }
  for (; i < cnt; ++i) {
    lo[0] = sd[i] < lo[0] ? sd[i] : lo[0];
    hi[0] = hi[0] < sd[i] ? sd[i] : hi[0];
  }
  for (int t = 1; t < kLanes; ++t) {
    lo[0] = lo[t] < lo[0] ? lo[t] : lo[0];
    hi[0] = hi[0] < hi[t] ? hi[t] : hi[0];
  }
  kmin = dist_key(lo[0]);
  kmax = dist_key(hi[0]);
}

/// Id-key range of sid[0, cnt).
GSKNN_ALWAYS_INLINE void id_key_range(const int* GSKNN_RESTRICT sid, int cnt,
                                      std::uint32_t& kmin,
                                      std::uint32_t& kmax) {
  int lo = sid[0];
  int hi = sid[0];
  for (int i = 1; i < cnt; ++i) {
    lo = sid[i] < lo ? sid[i] : lo;
    hi = hi < sid[i] ? sid[i] : hi;
  }
  kmin = id_key(lo);
  kmax = id_key(hi);
}

/// Radix-refine entries [0, cnt) of (sd, sid) until `r` (the winners still
/// owed) covers them all or every remaining key is equal. `range` reports
/// the active key range, `key` keys one entry. Entries in buckets below the
/// boundary are emitted as winners, entries above it are dropped, and the
/// boundary bucket is compacted to the front for the next pass — both
/// branch-free, since which side an entry falls on is data-dependent.
/// Returns the remaining count.
template <typename T, typename Range, typename Key>
int radix_refine(T* GSKNN_RESTRICT sd, int* GSKNN_RESTRICT sid, int cnt,
                 int& r, Range range, Key key, RowOut<T>& out) {
  while (r < cnt) {
    decltype(key(sd[0], sid[0])) kmin, kmax;
    range(cnt, kmin, kmax);
    if (kmin == kmax) break;
    const int width = std::bit_width(static_cast<decltype(kmin)>(kmax - kmin));
    const int shift = width > kBatchBucketBits ? width - kBatchBucketBits : 0;
    int hist[kBatchBuckets] = {};
    for (int i = 0; i < cnt; ++i) {
      ++hist[static_cast<std::size_t>((key(sd[i], sid[i]) - kmin) >> shift)];
    }
    int b = 0;
    int below = 0;
    while (below + hist[b] < r) below += hist[b++];
    const auto boundary = static_cast<decltype(kmin)>(b);
    // Fewer than r winners are emitted per pass, so slot() stays inside the
    // row even for the unconditional store after the last winner.
    int w = 0;
    for (int i = 0; i < cnt; ++i) {
      const T d = sd[i];
      const int x = sid[i];
      const auto bk = static_cast<decltype(kmin)>((key(d, x) - kmin) >> shift);
      const int p = out.slot();
      out.dist[p] = d;
      out.id[p] = x;
      out.o += (bk < boundary) ? 1 : 0;
      sd[w] = d;
      sid[w] = x;
      w += (bk == boundary) ? 1 : 0;
    }
    cnt = w;
    r -= below;
  }
  return cnt;
}

}  // namespace batch_detail

/// Offer `len` candidates (distances `cand`, ids `ids`) to one heap row of
/// k entries in `arity` layout, with the result sequential insertion of each
/// candidate (heap::pair_accepts against the live root) would leave. `sd`
/// and `sid` are scratch of batch_scratch_len(len, k) elements each.
/// Returns the number of candidates that passed the root test (the row's
/// root when the call began) and so entered the selection. Rows that must
/// stay duplicate-free (KnnConfig::dedup) need the per-candidate path
/// instead: there the first arrival of an id wins, which depends on order.
template <typename T>
int batch_select(const T* GSKNN_RESTRICT cand, const int* GSKNN_RESTRICT ids,
                 int len, T* GSKNN_RESTRICT dist, int* GSKNN_RESTRICT id,
                 int k, HeapArity arity, T* GSKNN_RESTRICT sd,
                 int* GSKNN_RESTRICT sid) {
  const bool quad = (arity == HeapArity::kQuad);
  const T root_d = dist[0];
  const int root_x = id[0];

  // 1. Filter. `d <= root` is the accept rule's fast test (it also throws
  // out NaN); a block no candidate of which passes it is skipped after one
  // vectorizable compare, and the rest are compacted branch-free.
  constexpr int kBlock = 16;
  int s = 0;
  const auto keep = [&](int j) {
    const T d = cand[j];
    const int x = ids[j];
    sd[s] = d;
    sid[s] = x;
    s += pair_accepts(d, x, root_d, root_x) ? 1 : 0;
  };
  int j = 0;
  for (; j + kBlock <= len; j += kBlock) {
    int hits = 0;
    for (int t = 0; t < kBlock; ++t) hits += (cand[j + t] <= root_d) ? 1 : 0;
    if (hits == 0) continue;
    for (int t = j; t < j + kBlock; ++t) keep(t);
  }
  for (; j < len; ++j) keep(j);
  if (s == 0) return 0;

  // 2. Gather: finite row entries after the survivors, the ids of +inf
  // entries (the empty-slot sentinels) at the far end of the scratch.
  const int cap = len + k;
  int f = s;
  int tail = cap;
  for (int l = 0; l < k; ++l) {
    const int p = quad ? quad_phys(l) : l;
    if (dist[p] < std::numeric_limits<T>::infinity()) {
      sd[f] = dist[p];
      sid[f] = id[p];
      ++f;
    } else {
      sid[--tail] = id[p];
    }
  }

  // 3. Select the k winners, writing them straight into the row.
  batch_detail::RowOut<T> out{dist, id, quad};
  if (f <= k) {
    for (int t = 0; t < f; ++t) out.emit(sd[t], sid[t]);
    const int pad = k - f;
    std::nth_element(sid + tail, sid + tail + pad, sid + cap);
    for (int t = 0; t < pad; ++t) {
      out.emit(std::numeric_limits<T>::infinity(), sid[tail + t]);
    }
  } else {
    int r = k;
    int cnt = batch_detail::radix_refine(
        sd, sid, f, r,
        [sd](int c, auto& lo, auto& hi) {
          batch_detail::dist_key_range(sd, c, lo, hi);
        },
        [](T d, int) { return batch_detail::dist_key(d); }, out);
    cnt = batch_detail::radix_refine(
        sd, sid, cnt, r,
        [sid](int c, auto& lo, auto& hi) {
          batch_detail::id_key_range(sid, c, lo, hi);
        },
        [](T, int x) { return batch_detail::id_key(x); }, out);
    // Either r == cnt, or the rest are equal (distance, id) pairs.
    for (int t = 0; t < r; ++t) out.emit(sd[t], sid[t]);
  }

  // 4. Rebuild the heap over the winners.
  if (quad) {
    quad_build(dist, id, k);
  } else {
    binary_build(dist, id, k);
  }
  return s;
}

}  // namespace gsknn::heap
