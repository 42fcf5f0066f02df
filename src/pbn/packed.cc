#include "pbn/packed.h"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/varint.h"
#include "pbn/codec.h"

namespace vpbn::num {

size_t PackedPbnRef::CommonPrefixLength(const PackedPbnRef& o) const {
  ComponentIterator a(*this);
  ComponentIterator b(o);
  size_t n = 0;
  while (a.HasNext() && b.HasNext() && a.Next() == b.Next()) ++n;
  return n;
}

uint32_t PackedPbnRef::at1(size_t i) const {
  ComponentIterator it(*this);
  uint32_t c = 0;
  for (size_t k = 0; k < i; ++k) c = it.Next();
  return c;
}

void PackedPbnRef::DecodeTo(std::vector<uint32_t>* out) const {
  out->clear();
  out->reserve(length_);
  ComponentIterator it(*this);
  while (it.HasNext()) out->push_back(it.Next());
}

Pbn PackedPbnRef::Materialize() const {
  std::vector<uint32_t> components;
  DecodeTo(&components);
  return Pbn(std::move(components));
}

uint32_t PackedPbnRef::PrefixByteSize(size_t n) const {
  const char* p = data_;
  for (size_t k = 0; k < n; ++k) {
    p += 1 + static_cast<uint8_t>(*p);
  }
  return static_cast<uint32_t>(p - data_);
}

namespace {

/// The last component of \p x as a one-component sub-ref (terminator
/// borrowed from the parent encoding's own tail). Requires !x.empty().
PackedPbnRef LastComponent(const PackedPbnRef& x) {
  uint32_t parent_bytes = x.PrefixByteSize(x.length() - 1);
  return PackedPbnRef(x.data() + parent_bytes, x.size_bytes() - parent_bytes,
                      1);
}

}  // namespace

bool PackedIsSibling(const PackedPbnRef& x, const PackedPbnRef& y) {
  if (x.length() != y.length() || x.empty()) return false;
  // Same parent: the byte spans before the last component must be equal
  // (equal components encode to equal bytes and vice versa).
  uint32_t px = x.PrefixByteSize(x.length() - 1);
  uint32_t py = y.PrefixByteSize(y.length() - 1);
  return px == py && std::memcmp(x.data(), y.data(), px) == 0;
}

bool PackedIsFollowingSibling(const PackedPbnRef& x, const PackedPbnRef& y) {
  return PackedIsSibling(x, y) &&
         LastComponent(x).Compare(LastComponent(y)) > 0;
}

bool PackedIsPrecedingSibling(const PackedPbnRef& x, const PackedPbnRef& y) {
  return PackedIsSibling(x, y) &&
         LastComponent(x).Compare(LastComponent(y)) < 0;
}

bool PackedCheckAxis(Axis axis, const PackedPbnRef& x, const PackedPbnRef& y) {
  switch (axis) {
    case Axis::kSelf:
      return PackedIsSelf(x, y);
    case Axis::kChild:
      return PackedIsChild(x, y);
    case Axis::kParent:
      return PackedIsParent(x, y);
    case Axis::kAncestor:
      return PackedIsAncestor(x, y);
    case Axis::kDescendant:
      return PackedIsDescendant(x, y);
    case Axis::kAncestorOrSelf:
      return PackedIsAncestorOrSelf(x, y);
    case Axis::kDescendantOrSelf:
      return PackedIsDescendantOrSelf(x, y);
    case Axis::kFollowing:
      return PackedIsFollowing(x, y);
    case Axis::kPreceding:
      return PackedIsPreceding(x, y);
    case Axis::kFollowingSibling:
      return PackedIsFollowingSibling(x, y);
    case Axis::kPrecedingSibling:
      return PackedIsPrecedingSibling(x, y);
    case Axis::kAttribute:
      return false;
  }
  return false;
}

void PackedPbnList::Append(const Pbn& pbn) {
  const uint32_t begin = static_cast<uint32_t>(arena_.size());
  EncodeOrdered(pbn, &arena_);
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  lengths_.push_back(static_cast<uint32_t>(pbn.length()));
  keys_.push_back(PackedPbnRef::ComputeKey(
      arena_.data() + begin, static_cast<uint32_t>(arena_.size()) - begin));
}

void PackedPbnList::Append(const PackedPbnRef& ref) {
  arena_.append(ref.data(), ref.size_bytes());
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  lengths_.push_back(ref.length());
  keys_.push_back(ref.key());
}

std::vector<Pbn> PackedPbnList::MaterializeAll() const {
  std::vector<Pbn> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) out.push_back(Materialize(i));
  return out;
}

PackedPbnList PackedPbnList::FromPbns(const std::vector<Pbn>& pbns) {
  PackedPbnList out;
  out.Reserve(pbns.size());
  for (const Pbn& p : pbns) out.Append(p);
  return out;
}

Result<PackedPbnList> PackedPbnList::FromArena(std::string arena,
                                               size_t count) {
  if (arena.size() > static_cast<size_t>(UINT32_MAX)) {
    return Status::InvalidArgument("packed arena exceeds 32-bit offsets");
  }
  PackedPbnList out;
  out.offsets_.reserve(count + 1);
  out.lengths_.reserve(count);
  out.keys_.reserve(count);
  size_t pos = 0;
  for (size_t i = 0; i < count; ++i) {
    size_t begin = pos;
    uint32_t components = 0;
    for (;;) {
      if (pos >= arena.size()) {
        return Status::InvalidArgument(
            "packed arena truncated inside an encoding");
      }
      uint8_t len = static_cast<uint8_t>(arena[pos]);
      if (len == 0) {
        ++pos;  // terminator
        break;
      }
      if (len > 4 || pos + 1 + len > arena.size()) {
        return Status::InvalidArgument("packed arena has a bad length byte");
      }
      pos += 1 + len;
      ++components;
    }
    if (components == 0) {
      return Status::InvalidArgument("packed arena encodes an empty number");
    }
    out.offsets_.push_back(static_cast<uint32_t>(pos));
    out.lengths_.push_back(components);
    out.keys_.push_back(PackedPbnRef::ComputeKey(
        arena.data() + begin, static_cast<uint32_t>(pos - begin)));
  }
  if (pos != arena.size()) {
    return Status::InvalidArgument("packed arena has trailing bytes");
  }
  out.arena_ = std::move(arena);
  for (size_t i = 1; i < out.size(); ++i) {
    if (out[i - 1].Compare(out[i]) >= 0) {
      return Status::InvalidArgument("packed arena is not document-ordered");
    }
  }
  return out;
}

void PackedPbnList::SortUnique() {
  std::vector<size_t> order(size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*this)[a].Compare((*this)[b]) < 0;
  });
  PackedPbnList sorted;
  sorted.Reserve(size());
  for (size_t i = 0; i < order.size(); ++i) {
    PackedPbnRef r = (*this)[order[i]];
    if (i > 0 && r == sorted[sorted.size() - 1]) continue;
    sorted.Append(r);
  }
  *this = std::move(sorted);
}

PackedPbnList PackedPbnList::MergeUnique(const PackedPbnList& a,
                                         const PackedPbnList& b) {
  PackedPbnList out;
  out.Reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size()) {
      out.Append(a[i++]);
    } else if (i >= a.size()) {
      out.Append(b[j++]);
    } else {
      int c = a[i].Compare(b[j]);
      if (c < 0) {
        out.Append(a[i++]);
      } else if (c > 0) {
        out.Append(b[j++]);
      } else {
        out.Append(a[i++]);
        ++j;
      }
    }
  }
  return out;
}

size_t PackedPbnList::LowerBound(const PackedPbnRef& key) const {
  size_t lo = 0, hi = size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if ((*this)[mid].Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::pair<size_t, size_t> PackedPbnList::PrefixRange(
    const PackedPbnRef& scope) const {
  // Descendants-or-self of `scope` form one contiguous run starting at the
  // first element >= scope. The run's end is the first element that scope
  // does not prefix; since "scope prefixes e" implies e >= scope and the
  // prefixed elements are contiguous, a second binary search on the prefix
  // test finds it.
  size_t first = LowerBound(scope);
  size_t lo = first, hi = size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (scope.IsPrefixOf((*this)[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {first, lo};
}

void PackedPbnList::Reserve(size_t nodes, size_t bytes_per_node) {
  arena_.reserve(arena_.size() + nodes * bytes_per_node);
  offsets_.reserve(offsets_.size() + nodes);
  lengths_.reserve(lengths_.size() + nodes);
  keys_.reserve(keys_.size() + nodes);
}

// ---------------------------------------------------------------------------
// Batched compare kernels.
//
// One probe against a contiguous run of a packed list's columns. The key
// column decides document order outright for unequal keys and decides the
// strict-prefix test whenever the candidate's encoding fits in the key
// (k <= 8 masked compare — the PackedPbnRef::PrefixBytesMatch fast path).
// Equal-key lanes and long-prefix candidates are rare, so they resolve
// scalar per lane. Three implementations share one contract; the fastest
// the CPU supports is resolved once per process.

namespace {

struct ProbeCtx {
  uint64_t key;
  uint32_t size;
  const char* data;
};

// Scalar resolution of the decisions the key column could not finish for
// lane x: the long-prefix test and the equal-key order tie-break. Called
// only when keys[x] == probe.key.
inline void ResolveEqualLane(const uint32_t* offsets, const char* arena,
                             size_t x, const ProbeCtx& p, BatchCounts* bc) {
  const uint32_t as = offsets[x + 1] - offsets[x];
  const uint32_t k = as - 1;
  if (k > 8 && as < p.size &&
      std::memcmp(arena + offsets[x] + 8, p.data + 8, k - 8) == 0) {
    ++bc->prefix;
  }
  if (as > 8 && p.size > 8) {
    uint32_t t = (as < p.size ? as : p.size) - 8;
    int r = std::memcmp(arena + offsets[x] + 8, p.data + 8, t);
    bc->less += r != 0 ? r < 0 : as < p.size;
  }
}

void BatchScalar(const uint64_t* keys, const uint32_t* offsets,
                 const char* arena, size_t lo, size_t n, const ProbeCtx& p,
                 BatchCounts* bc) {
  for (size_t j = 0; j < n; ++j) {
    const size_t x = lo + j;
    const uint64_t akey = keys[x];
    if (akey != p.key) {
      bc->less += akey < p.key;
      const uint32_t as = offsets[x + 1] - offsets[x];
      const uint32_t k = as - 1;
      if (k <= 8) {
        uint64_t mask = k == 8 ? ~0ull : ~(~0ull >> (8 * k));
        bc->prefix += as < p.size && ((akey ^ p.key) & mask) == 0;
      }
      // k > 8 with unequal keys can never be a prefix (a prefix's first
      // eight real bytes are the probe's).
    } else {
      const uint32_t as = offsets[x + 1] - offsets[x];
      const uint32_t k = as - 1;
      if (k <= 8) bc->prefix += as < p.size;
      ResolveEqualLane(offsets, arena, x, p, bc);
    }
  }
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void BatchAvx2(const uint64_t* keys,
                                               const uint32_t* offsets,
                                               const char* arena, size_t lo,
                                               size_t n, const ProbeCtx& p,
                                               BatchCounts* bc) {
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i pk_raw = _mm256_set1_epi64x(static_cast<long long>(p.key));
  const __m256i pk_biased = _mm256_xor_si256(pk_raw, bias);
  const __m256i psize = _mm256_set1_epi64x(static_cast<long long>(p.size));
  const __m256i ones = _mm256_set1_epi64x(1);
  const __m256i allf = _mm256_set1_epi64x(-1);
  const __m256i seven = _mm256_set1_epi64x(7);
  const __m256i nine = _mm256_set1_epi64x(9);
  __m256i less_acc = _mm256_setzero_si256();
  __m256i pref_acc = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const size_t x = lo + j;
    const __m256i k = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(keys + x));
    const __m256i kb = _mm256_xor_si256(k, bias);
    less_acc = _mm256_sub_epi64(less_acc, _mm256_cmpgt_epi64(pk_biased, kb));
    const __m128i off_lo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(offsets + x));
    const __m128i off_hi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(offsets + x + 1));
    const __m256i as = _mm256_cvtepu32_epi64(_mm_sub_epi32(off_hi, off_lo));
    const __m256i kk = _mm256_sub_epi64(as, ones);
    // mask = k >= 8 ? ~0 : ~(~0 >> 8k) — variable 64-bit shifts are AVX2.
    const __m256i shr = _mm256_srlv_epi64(allf, _mm256_slli_epi64(kk, 3));
    __m256i mask = _mm256_andnot_si256(shr, allf);
    mask = _mm256_or_si256(mask, _mm256_cmpgt_epi64(kk, seven));
    const __m256i pm = _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_xor_si256(k, pk_raw), mask),
        _mm256_setzero_si256());
    const __m256i szlt = _mm256_cmpgt_epi64(psize, as);
    const __m256i kle8 = _mm256_cmpgt_epi64(nine, kk);
    pref_acc = _mm256_sub_epi64(
        pref_acc, _mm256_and_si256(_mm256_and_si256(pm, szlt), kle8));
    const int eq = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(k, pk_raw)));
    if (eq != 0) {
      for (int b = 0; b < 4; ++b) {
        if (eq & (1 << b)) ResolveEqualLane(offsets, arena, x + b, p, bc);
      }
    }
  }
  alignas(32) uint64_t tmp[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), less_acc);
  bc->less += tmp[0] + tmp[1] + tmp[2] + tmp[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), pref_acc);
  bc->prefix += tmp[0] + tmp[1] + tmp[2] + tmp[3];
  if (j < n) BatchScalar(keys, offsets, arena, lo + j, n - j, p, bc);
}

__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"))) void
BatchAvx512(const uint64_t* keys, const uint32_t* offsets, const char* arena,
            size_t lo, size_t n, const ProbeCtx& p, BatchCounts* bc) {
  const __m512i pk = _mm512_set1_epi64(static_cast<long long>(p.key));
  const __m512i psize = _mm512_set1_epi64(static_cast<long long>(p.size));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i seven = _mm512_set1_epi64(7);
  const __m512i eight = _mm512_set1_epi64(8);
  const __m512i allf = _mm512_set1_epi64(-1);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const size_t x = lo + j;
    const __m512i k = _mm512_loadu_si512(
        reinterpret_cast<const void*>(keys + x));
    bc->less += static_cast<unsigned>(
        _mm_popcnt_u32(_mm512_cmplt_epu64_mask(k, pk)));
    const __m256i off_lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(offsets + x));
    const __m256i off_hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(offsets + x + 1));
    const __m512i as =
        _mm512_cvtepu32_epi64(_mm256_sub_epi32(off_hi, off_lo));
    const __m512i kk = _mm512_sub_epi64(as, one);
    __m512i mask = _mm512_andnot_si512(
        _mm512_srlv_epi64(allf, _mm512_slli_epi64(kk, 3)), allf);
    mask = _mm512_mask_mov_epi64(mask, _mm512_cmpgt_epi64_mask(kk, seven),
                                 allf);
    const __mmask8 pm =
        _mm512_testn_epi64_mask(_mm512_xor_si512(k, pk), mask);
    const __mmask8 szlt = _mm512_cmplt_epi64_mask(as, psize);
    const __mmask8 kle8 =
        static_cast<__mmask8>(~_mm512_cmpgt_epi64_mask(kk, eight));
    bc->prefix += static_cast<unsigned>(_mm_popcnt_u32(pm & szlt & kle8));
    const __mmask8 eq = _mm512_cmpeq_epi64_mask(k, pk);
    if (eq != 0) {
      for (int b = 0; b < 8; ++b) {
        if (eq & (1 << b)) ResolveEqualLane(offsets, arena, x + b, p, bc);
      }
    }
  }
  if (j < n) BatchScalar(keys, offsets, arena, lo + j, n - j, p, bc);
}

#endif  // defined(__x86_64__)

using BatchFn = void (*)(const uint64_t*, const uint32_t*, const char*,
                         size_t, size_t, const ProbeCtx&, BatchCounts*);

struct BatchKernel {
  BatchFn fn;
  const char* isa;
};

BatchKernel ResolveBatchKernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return {BatchAvx512, "avx512"};
  }
  if (__builtin_cpu_supports("avx2")) return {BatchAvx2, "avx2"};
#endif
  return {BatchScalar, "scalar"};
}

const BatchKernel& GetBatchKernel() {
  static const BatchKernel kernel = ResolveBatchKernel();
  return kernel;
}

}  // namespace

BatchCounts CompareKeysBatch(const uint64_t* keys, const uint32_t* offsets,
                             const char* arena, size_t lo, size_t n,
                             const PackedPbnRef& probe) {
  BatchCounts bc;
  const ProbeCtx p{probe.key(), probe.size_bytes(), probe.data()};
  GetBatchKernel().fn(keys, offsets, arena, lo, n, p, &bc);
  return bc;
}

const char* BatchKernelIsa() { return GetBatchKernel().isa; }

// ---------------------------------------------------------------------------
// Blocked on-disk codec: front-coded entries in kPbnBlockEntries-entry
// blocks, a delta-varint block offset table and explicit per-block min/max
// sort keys.
//
//   varint entry_count | varint block_count
//   block end offsets  : delta varints (cumulative payload byte offsets)
//   block min/max keys : 8 + 8 bytes little-endian per block
//   payloads           : per block, entries as
//                          first:  varint size | size bytes
//                          rest:   varint lcp | varint suffix_len | suffix
//
// Every block's first entry is stored raw, so blocks decode independently
// of one another (DecodeBlock) and a lazily-decoded list touches only the
// payload pages it walks.

namespace {

void PutKeyLE(std::string* out, uint64_t key) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(key >> (8 * i)));
  }
}

uint64_t GetKeyLE(std::string_view in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::string EncodeBlocked(const PackedPbnList& list) {
  const size_t n = list.size();
  const size_t blocks = (n + kPbnBlockEntries - 1) / kPbnBlockEntries;
  std::string payloads;
  payloads.reserve(list.arena_bytes() / 2 + 16);
  std::vector<uint64_t> ends;
  std::string dir_keys;
  ends.reserve(blocks);
  dir_keys.reserve(blocks * 16);
  for (size_t b = 0; b < blocks; ++b) {
    const size_t first = b * kPbnBlockEntries;
    const size_t last = std::min(first + kPbnBlockEntries, n);
    PutKeyLE(&dir_keys, list[first].key());
    PutKeyLE(&dir_keys, list[last - 1].key());
    for (size_t i = first; i < last; ++i) {
      const PackedPbnRef cur = list[i];
      if (i == first) {
        PutVarint32(&payloads, cur.size_bytes());
        payloads.append(cur.data(), cur.size_bytes());
        continue;
      }
      const PackedPbnRef prev = list[i - 1];
      // Shareable span: everything but the terminators. The suffix always
      // carries at least the terminator byte.
      uint32_t limit = std::min(prev.size_bytes(), cur.size_bytes()) - 1;
      uint32_t lcp = 0;
      while (lcp < limit && prev.data()[lcp] == cur.data()[lcp]) ++lcp;
      PutVarint32(&payloads, lcp);
      PutVarint32(&payloads, cur.size_bytes() - lcp);
      payloads.append(cur.data() + lcp, cur.size_bytes() - lcp);
    }
    ends.push_back(payloads.size());
  }
  std::string out;
  PutVarint64(&out, n);
  PutVarint64(&out, blocks);
  PutDeltaU64Array(&out, ends.data(), ends.size());
  out.append(dir_keys);
  out.append(payloads);
  return out;
}

Status DecodeBlockScalar(std::string_view payload, size_t entries,
                         PackedPbnList* out) {
  std::string& arena = out->arena_;
  for (size_t e = 0; e < entries; ++e) {
    const uint32_t begin = static_cast<uint32_t>(arena.size());
    if (e == 0) {
      VPBN_ASSIGN_OR_RETURN(uint32_t size, GetVarint32(&payload));
      if (size > payload.size()) {
        return Status::InvalidArgument("blocked arena: truncated entry");
      }
      arena.append(payload.data(), size);
      payload.remove_prefix(size);
    } else {
      VPBN_ASSIGN_OR_RETURN(uint32_t lcp, GetVarint32(&payload));
      VPBN_ASSIGN_OR_RETURN(uint32_t suffix, GetVarint32(&payload));
      const uint32_t prev_begin = out->offsets_[out->offsets_.size() - 2];
      const uint32_t prev_size = begin - prev_begin;
      if (lcp >= prev_size || suffix > payload.size() ||
          lcp > UINT32_MAX - suffix) {
        return Status::InvalidArgument("blocked arena: bad front coding");
      }
      // The shared bytes live earlier in this same arena; append them
      // before the suffix. reserve() first so the self-referencing append
      // never reads through a reallocation.
      arena.reserve(arena.size() + lcp + suffix);
      arena.append(arena.data() + prev_begin, lcp);
      arena.append(payload.data(), suffix);
      payload.remove_prefix(suffix);
    }
    // Validate the assembled encoding's framing, counting components.
    const uint32_t size = static_cast<uint32_t>(arena.size()) - begin;
    uint32_t components = 0;
    uint32_t posn = 0;
    for (;;) {
      if (posn >= size) {
        return Status::InvalidArgument(
            "blocked arena: entry missing terminator");
      }
      const uint8_t len = static_cast<uint8_t>(arena[begin + posn]);
      if (len == 0) {
        ++posn;
        break;
      }
      if (len > 4 || posn + 1 + len > size) {
        return Status::InvalidArgument("blocked arena: bad length byte");
      }
      posn += 1 + len;
      ++components;
    }
    if (posn != size || components == 0) {
      return Status::InvalidArgument("blocked arena: malformed entry");
    }
    out->offsets_.push_back(static_cast<uint32_t>(arena.size()));
    out->lengths_.push_back(components);
    out->keys_.push_back(
        PackedPbnRef::ComputeKey(arena.data() + begin, size));
    const size_t i = out->size() - 1;
    if (i > 0 && (*out)[i - 1].Compare((*out)[i]) >= 0) {
      return Status::InvalidArgument("blocked arena: not document-ordered");
    }
  }
  if (!payload.empty()) {
    return Status::InvalidArgument("blocked arena: trailing block bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Batched DecodeBlock. The scalar decoder above interleaves varint parsing,
// arena growth, framing validation and the order check per entry; the
// batched form splits them into block-wide passes — parse every header into
// stack arrays, size the arena once and assemble with straight memcpys,
// validate framing, then check document order over the key column with a
// SIMD kernel that touches the arena only on equal-key pairs (the same
// key-column-first shape as CompareKeysBatch).

namespace {

/// Append to \p suspects every index i in [lo, hi) where the key column
/// does NOT prove keys[i-1] < keys[i] strictly; the caller re-checks those
/// pairs with the full scalar Compare. Keys are unsigned.
void OrderScalar(const uint64_t* keys, size_t lo, size_t hi,
                 std::vector<size_t>* suspects) {
  for (size_t i = lo; i < hi; ++i) {
    if (keys[i - 1] >= keys[i]) suspects->push_back(i);
  }
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) void OrderAvx2(const uint64_t* keys,
                                               size_t lo, size_t hi,
                                               std::vector<size_t>* suspects) {
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256i prev = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i - 1)),
        bias);
    const __m256i cur = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), bias);
    const int ordered = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(cur, prev)));
    if (ordered != 0xF) {
      for (int b = 0; b < 4; ++b) {
        if ((ordered & (1 << b)) == 0) suspects->push_back(i + b);
      }
    }
  }
  if (i < hi) OrderScalar(keys, i, hi, suspects);
}

__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"))) void
OrderAvx512(const uint64_t* keys, size_t lo, size_t hi,
            std::vector<size_t>* suspects) {
  size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m512i prev =
        _mm512_loadu_si512(reinterpret_cast<const void*>(keys + i - 1));
    const __m512i cur =
        _mm512_loadu_si512(reinterpret_cast<const void*>(keys + i));
    const __mmask8 suspect = _mm512_cmple_epu64_mask(cur, prev);
    if (suspect != 0) {
      for (int b = 0; b < 8; ++b) {
        if (suspect & (1 << b)) suspects->push_back(i + b);
      }
    }
  }
  if (i < hi) OrderScalar(keys, i, hi, suspects);
}

#endif  // defined(__x86_64__)

using OrderFn = void (*)(const uint64_t*, size_t, size_t,
                         std::vector<size_t>*);

struct DecodeKernel {
  OrderFn fn;
  const char* isa;
};

DecodeKernel ResolveDecodeKernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return {OrderAvx512, "avx512"};
  }
  if (__builtin_cpu_supports("avx2")) return {OrderAvx2, "avx2"};
#endif
  return {OrderScalar, "scalar"};
}

const DecodeKernel& GetDecodeKernel() {
  static const DecodeKernel kernel = ResolveDecodeKernel();
  return kernel;
}

}  // namespace

const char* DecodeKernelIsa() { return GetDecodeKernel().isa; }

Status DecodeBlock(std::string_view payload, size_t entries,
                   PackedPbnList* out) {
  if (entries > kPbnBlockEntries) {
    // Oversized calls (not produced by EncodeBlocked) take the reference
    // path rather than spilling the header arrays to the heap.
    return DecodeBlockScalar(payload, entries, out);
  }
  // Pass 1: parse every front-coding header, remembering where each
  // entry's suffix bytes live. Validation here matches the scalar decoder
  // branch for branch.
  uint32_t lcps[kPbnBlockEntries];
  uint32_t suffixes[kPbnBlockEntries];
  const char* srcs[kPbnBlockEntries];
  uint32_t sizes[kPbnBlockEntries];
  size_t total = 0;
  for (size_t e = 0; e < entries; ++e) {
    if (e == 0) {
      VPBN_ASSIGN_OR_RETURN(uint32_t size, GetVarint32(&payload));
      if (size > payload.size()) {
        return Status::InvalidArgument("blocked arena: truncated entry");
      }
      lcps[e] = 0;
      suffixes[e] = size;
    } else {
      VPBN_ASSIGN_OR_RETURN(uint32_t lcp, GetVarint32(&payload));
      VPBN_ASSIGN_OR_RETURN(uint32_t suffix, GetVarint32(&payload));
      if (lcp >= sizes[e - 1] || suffix > payload.size() ||
          lcp > UINT32_MAX - suffix) {
        return Status::InvalidArgument("blocked arena: bad front coding");
      }
      lcps[e] = lcp;
      suffixes[e] = suffix;
    }
    srcs[e] = payload.data();
    payload.remove_prefix(suffixes[e]);
    sizes[e] = lcps[e] + suffixes[e];
    total += sizes[e];
  }
  if (!payload.empty()) {
    return Status::InvalidArgument("blocked arena: trailing block bytes");
  }

  // Pass 2: size the arena once and assemble every entry with two memcpys
  // (shared prefix from the previous entry, just written; suffix from the
  // payload). Adjacent regions never overlap.
  std::string& arena = out->arena_;
  const size_t base = arena.size();
  arena.resize(base + total);
  char* dst = arena.data() + base;
  const char* prev = nullptr;
  for (size_t e = 0; e < entries; ++e) {
    if (lcps[e] != 0) std::memcpy(dst, prev, lcps[e]);
    std::memcpy(dst + lcps[e], srcs[e], suffixes[e]);
    prev = dst;
    dst += sizes[e];
  }

  // Pass 3: validate each assembled encoding's framing (component length
  // bytes 1..4, one terminator, nothing after it) and push the columns.
  const size_t first_new = out->size();
  size_t begin = base;
  for (size_t e = 0; e < entries; ++e) {
    const uint32_t size = sizes[e];
    uint32_t components = 0;
    uint32_t posn = 0;
    for (;;) {
      if (posn >= size) {
        return Status::InvalidArgument(
            "blocked arena: entry missing terminator");
      }
      const uint8_t len = static_cast<uint8_t>(arena[begin + posn]);
      if (len == 0) {
        ++posn;
        break;
      }
      if (len > 4 || posn + 1 + len > size) {
        return Status::InvalidArgument("blocked arena: bad length byte");
      }
      posn += 1 + len;
      ++components;
    }
    if (posn != size || components == 0) {
      return Status::InvalidArgument("blocked arena: malformed entry");
    }
    out->offsets_.push_back(static_cast<uint32_t>(begin + size));
    out->lengths_.push_back(components);
    out->keys_.push_back(PackedPbnRef::ComputeKey(arena.data() + begin, size));
    begin += size;
  }

  // Pass 4: document-order check over the key column (the pair across the
  // previous block's boundary included). Unequal keys decide outright;
  // equal-key pairs — rare — re-check with the full comparison.
  const size_t lo = first_new == 0 ? 1 : first_new;
  const size_t hi = out->size();
  if (lo < hi) {
    std::vector<size_t> suspects;
    GetDecodeKernel().fn(out->keys_.data(), lo, hi, &suspects);
    for (size_t i : suspects) {
      if ((*out)[i - 1].Compare((*out)[i]) >= 0) {
        return Status::InvalidArgument("blocked arena: not document-ordered");
      }
    }
  }
  return Status::OK();
}

Result<PackedPbnList> DecodeBlocked(std::string_view blob, size_t count) {
  VPBN_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(&blob));
  VPBN_ASSIGN_OR_RETURN(uint64_t blocks, GetVarint64(&blob));
  if (n != count) {
    return Status::InvalidArgument("blocked arena: entry count mismatch");
  }
  const uint64_t want_blocks =
      (count + kPbnBlockEntries - 1) / kPbnBlockEntries;
  if (blocks != want_blocks) {
    return Status::InvalidArgument("blocked arena: block count mismatch");
  }
  std::vector<uint64_t> ends;
  VPBN_RETURN_NOT_OK(GetDeltaU64Array(&blob, blocks, &ends));
  if (blob.size() < blocks * 16) {
    return Status::InvalidArgument("blocked arena: truncated directory");
  }
  std::string_view dir_keys = blob.substr(0, blocks * 16);
  std::string_view payloads = blob.substr(blocks * 16);
  if ((ends.empty() ? 0 : ends.back()) != payloads.size()) {
    return Status::InvalidArgument("blocked arena: payload size mismatch");
  }
  PackedPbnList out;
  out.Reserve(count, 12);
  uint64_t prev_end = 0;
  for (uint64_t b = 0; b < blocks; ++b) {
    const size_t first = static_cast<size_t>(b) * kPbnBlockEntries;
    const size_t entries = std::min(kPbnBlockEntries, count - first);
    if (ends[b] < prev_end || ends[b] > payloads.size()) {
      return Status::InvalidArgument("blocked arena: bad block offset");
    }
    VPBN_RETURN_NOT_OK(DecodeBlock(
        payloads.substr(prev_end, ends[b] - prev_end), entries, &out));
    prev_end = ends[b];
    // The stored min/max keys drive block skipping; reject metadata that
    // disagrees with the decoded entries.
    if (GetKeyLE(dir_keys.substr(b * 16)) != out[first].key() ||
        GetKeyLE(dir_keys.substr(b * 16 + 8)) !=
            out[first + entries - 1].key()) {
      return Status::InvalidArgument("blocked arena: min/max key mismatch");
    }
  }
  return out;
}

void DecodedPbnColumn::FromList(const PackedPbnList& list) {
  values_.clear();
  starts_.assign(1, 0);
  size_t n = list.size();
  size_t total = 0;
  const uint32_t* lengths = list.lengths_data();
  for (size_t i = 0; i < n; ++i) total += lengths[i];
  values_.reserve(total);
  starts_.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) {
    PackedPbnRef::ComponentIterator it(list[i]);
    while (it.HasNext()) values_.push_back(it.Next());
    starts_.push_back(static_cast<uint32_t>(values_.size()));
  }
}

}  // namespace vpbn::num
