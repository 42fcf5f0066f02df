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

std::pair<size_t, size_t> PackedPbnList::PrefixRange(
    const PackedPbnRef& scope) const {
  // Descendants-or-self of `scope` form one contiguous run starting at the
  // first element >= scope. The run's end is the first element that scope
  // does not prefix; since "scope prefixes e" implies e >= scope and the
  // prefixed elements are contiguous, a second binary search on the prefix
  // test finds it.
  auto partition_point = [&](size_t lo, auto&& before) {
    size_t hi = size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (before((*this)[mid])) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const size_t first = partition_point(
      0, [&](const PackedPbnRef& e) { return e.Compare(scope) < 0; });
  return {first, partition_point(first, [&](const PackedPbnRef& e) {
            return scope.IsPrefixOf(e);
          })};
}

void PackedPbnList::Reserve(size_t nodes, size_t bytes_per_node) {
  arena_.reserve(arena_.size() + nodes * bytes_per_node);
  offsets_.reserve(offsets_.size() + nodes);
  lengths_.reserve(lengths_.size() + nodes);
  keys_.reserve(keys_.size() + nodes);
}

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
// SIMD kernel that touches the arena only on equal-key pairs.

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

const char* BatchKernelIsa() { return DecodeKernelIsa(); }

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
