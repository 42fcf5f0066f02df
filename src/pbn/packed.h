/// \file packed.h
/// \brief Columnar, order-preserving PBN storage: one contiguous byte arena
/// of EncodeOrdered numbers plus offset/length columns.
///
/// The per-node `Pbn` (a heap-allocated `std::vector<uint32_t>`) is the
/// right API object but the wrong storage substrate: every axis decision in
/// the stack-tree joins and type-index scans chases a pointer per node. The
/// ordered codec (pbn/codec.h) already gives a byte encoding whose plain
/// memcmp *is* document order, so a whole type-index list packs into one
/// arena and the hot paths become contiguous byte compares:
///
///   arena_   : |enc(p_0)|enc(p_1)|...|enc(p_{n-1})|      (bytes)
///   offsets_ : |0|off_1|...|off_n|                        (n + 1 entries)
///   lengths_ : |len(p_0)|...|len(p_{n-1})|                (component counts)
///   keys_    : |key(p_0)|...|key(p_{n-1})|                (8-byte sort keys)
///
/// A PackedPbnRef is a non-owning view of one encoded number; it decides
/// every axis without materializing a Pbn. The length column caches the
/// component count (a node's tree level), which the child/sibling axes need
/// and which would otherwise cost a scan of the encoding.
///
/// The key column holds each encoding's first eight bytes as a big-endian
/// machine word, zero-padded past the terminator. Zero is the terminator
/// byte, so key order equals byte-string order over the first eight bytes,
/// and — because every encoding shorter than nine bytes embeds its
/// terminator inside the key — equal keys force either full equality or
/// both encodings longer than eight bytes. Most axis decisions (XMark-style
/// documents encode at 7–11 bytes/node) therefore resolve in one register
/// compare with no arena access at all; only equal-key pairs fall through
/// to a tail memcmp from byte eight.

#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "pbn/axis.h"
#include "pbn/pbn.h"

namespace vpbn::num {

/// \brief Non-owning view of one ordered-encoded PBN inside an arena. The
/// bytes (terminator included) compare in document order with memcmp; all
/// predicates run in O(min encoded length) with no allocation. The backing
/// arena must outlive the ref.
class PackedPbnRef {
 public:
  PackedPbnRef() = default;
  PackedPbnRef(const char* data, uint32_t size, uint32_t length)
      : data_(data), size_(size), length_(length),
        key_(ComputeKey(data, size)) {}
  /// Arena fast path: \p key must equal ComputeKey(data, size). The list
  /// stores precomputed keys so operator[] never re-reads the arena.
  PackedPbnRef(const char* data, uint32_t size, uint32_t length, uint64_t key)
      : data_(data), size_(size), length_(length), key_(key) {}

  /// Big-endian first-eight-bytes sort key, zero-padded past the
  /// terminator. Never reads beyond \p size bytes.
  static uint64_t ComputeKey(const char* data, uint32_t size) {
    uint64_t w = 0;
    // size == 0 keeps data out of memcpy: an empty ref may carry nullptr.
    if (size != 0) std::memcpy(&w, data, size < 8 ? size : 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    return w;
#else
    return __builtin_bswap64(w);
#endif
  }

  /// The encoded bytes, trailing 0x00 terminator included.
  std::string_view bytes() const { return {data_, size_}; }
  const char* data() const { return data_; }
  uint32_t size_bytes() const { return size_; }
  uint64_t key() const { return key_; }

  /// Number of components ("length of the number").
  uint32_t length() const { return length_; }
  bool empty() const { return length_ == 0; }

  /// Document-order comparison (<0, 0, >0). Encoded strings are prefix-free
  /// at component boundaries, so byte order over the shorter length decides
  /// and equality-over-min implies the shorter is the lesser (its
  /// terminator 0x00 sorts before any component length byte). The sort keys
  /// decide most pairs in one register compare; equal keys with either side
  /// at most eight bytes imply full equality (the shorter side's terminator
  /// sits inside the key, and a zero inside the other key could only be its
  /// terminator too), so the tail memcmp runs only when both run long.
  int Compare(const PackedPbnRef& o) const {
    if (key_ != o.key_) return key_ < o.key_ ? -1 : 1;
    if (size_ <= 8 || o.size_ <= 8) return 0;
    uint32_t n = (size_ < o.size_ ? size_ : o.size_) - 8;
    int r = std::memcmp(data_ + 8, o.data_ + 8, n);
    if (r != 0) return r;
    if (size_ == o.size_) return 0;
    return size_ < o.size_ ? -1 : 1;
  }

  bool operator==(const PackedPbnRef& o) const {
    return size_ == o.size_ && key_ == o.key_ &&
           (size_ <= 8 || std::memcmp(data_ + 8, o.data_ + 8, size_ - 8) == 0);
  }

  std::strong_ordering operator<=>(const PackedPbnRef& o) const {
    int c = Compare(o);
    if (c < 0) return std::strong_ordering::less;
    if (c > 0) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

  /// True iff *this is a (non-strict) component prefix of \p o: the
  /// encoding without its terminator is a byte prefix of o's encoding
  /// (component encodings are self-delimiting, so a byte match is a
  /// component match). A prefix of at most eight bytes is decided entirely
  /// inside the sort keys with one masked compare.
  bool IsPrefixOf(const PackedPbnRef& o) const {
    return size_ <= o.size_ && PrefixBytesMatch(o);
  }

  bool IsStrictPrefixOf(const PackedPbnRef& o) const {
    return size_ < o.size_ && PrefixBytesMatch(o);
  }

  /// Length (in components) of the longest common prefix with \p o.
  size_t CommonPrefixLength(const PackedPbnRef& o) const;

  /// 1-based component access (O(i) scan — the columnar paths iterate
  /// instead; this exists for parity with Pbn::at1).
  uint32_t at1(size_t i) const;

  /// Decode all components into \p out (resized to length()).
  void DecodeTo(std::vector<uint32_t>* out) const;

  /// Materialize a heap Pbn (the compatibility path back into the vector
  /// world).
  Pbn Materialize() const;

  /// Byte size of the encoding of the first \p n components (no
  /// terminator) — the byte span a length-n prefix of this number occupies.
  uint32_t PrefixByteSize(size_t n) const;

  /// FNV-1a over the encoded bytes (terminator included); consistent with
  /// PbnHash over the equivalent Pbn.
  size_t Hash() const {
    uint64_t h = 1469598103934665603ULL;
    for (uint32_t i = 0; i < size_; ++i) {
      h = (h ^ static_cast<uint8_t>(data_[i])) * 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }

  /// \brief Streaming component decoder.
  class ComponentIterator {
   public:
    explicit ComponentIterator(const PackedPbnRef& ref) : p_(ref.data_) {}
    /// True while another component is available.
    bool HasNext() const { return static_cast<uint8_t>(*p_) != 0; }
    /// Decode and consume the next component.
    uint32_t Next() {
      uint8_t nbytes = static_cast<uint8_t>(*p_++);
      uint32_t c = 0;
      for (uint8_t i = 0; i < nbytes; ++i) {
        c = (c << 8) | static_cast<uint8_t>(*p_++);
      }
      return c;
    }

   private:
    const char* p_;
  };

 private:
  /// Do the first size_ - 1 bytes (the encoding minus its terminator) match
  /// \p o? Callers have already established size_ <= o.size_, so the first
  /// size_ - 1 bytes of o's key are real encoded bytes, never key padding.
  bool PrefixBytesMatch(const PackedPbnRef& o) const {
    uint32_t k = size_ - 1;
    if (k <= 8) {
      uint64_t mask = k == 8 ? ~0ull : ~(~0ull >> (8 * k));
      return ((key_ ^ o.key_) & mask) == 0;
    }
    return key_ == o.key_ && std::memcmp(data_ + 8, o.data_ + 8, k - 8) == 0;
  }

  const char* data_ = nullptr;
  uint32_t size_ = 0;
  uint32_t length_ = 0;
  uint64_t key_ = 0;
};

/// \brief Hash functor over PackedPbnRef (for unordered containers keyed by
/// packed numbers; equal to PbnHash of the materialized number).
struct PackedPbnRefHash {
  size_t operator()(const PackedPbnRef& r) const { return r.Hash(); }
};

/// \name Packed axis predicates — mirror pbn/axis.h over refs.
/// @{
inline bool PackedIsSelf(const PackedPbnRef& x, const PackedPbnRef& y) {
  return x == y;
}
inline bool PackedIsChild(const PackedPbnRef& x, const PackedPbnRef& y) {
  return x.length() == y.length() + 1 && y.IsPrefixOf(x);
}
inline bool PackedIsParent(const PackedPbnRef& x, const PackedPbnRef& y) {
  return PackedIsChild(y, x);
}
inline bool PackedIsAncestor(const PackedPbnRef& x, const PackedPbnRef& y) {
  return x.IsStrictPrefixOf(y);
}
inline bool PackedIsDescendant(const PackedPbnRef& x, const PackedPbnRef& y) {
  return y.IsStrictPrefixOf(x);
}
inline bool PackedIsAncestorOrSelf(const PackedPbnRef& x,
                                   const PackedPbnRef& y) {
  return x.IsPrefixOf(y);
}
inline bool PackedIsDescendantOrSelf(const PackedPbnRef& x,
                                     const PackedPbnRef& y) {
  return y.IsPrefixOf(x);
}
inline bool PackedIsFollowing(const PackedPbnRef& x, const PackedPbnRef& y) {
  return x.Compare(y) > 0 && !PackedIsDescendant(x, y);
}
inline bool PackedIsPreceding(const PackedPbnRef& x, const PackedPbnRef& y) {
  return x.Compare(y) < 0 && !PackedIsAncestor(x, y);
}
bool PackedIsSibling(const PackedPbnRef& x, const PackedPbnRef& y);
bool PackedIsFollowingSibling(const PackedPbnRef& x, const PackedPbnRef& y);
bool PackedIsPrecedingSibling(const PackedPbnRef& x, const PackedPbnRef& y);

/// \brief Dispatch on \p axis: is x <axis> of y? Identical truth table to
/// num::CheckAxis over the materialized numbers (property-tested).
bool PackedCheckAxis(Axis axis, const PackedPbnRef& x, const PackedPbnRef& y);
/// @}

/// \brief A packed list of PBN numbers: the columnar arena plus offset and
/// length columns. Append-only while building; random access by index
/// afterwards. Lists built from a document-ordered source stay sorted and
/// feed the memcmp binary searches and packed structural joins directly.
class PackedPbnList {
 public:
  PackedPbnList() { offsets_.push_back(0); }

  size_t size() const { return lengths_.size(); }
  bool empty() const { return lengths_.empty(); }

  PackedPbnRef operator[](size_t i) const {
    return PackedPbnRef(arena_.data() + offsets_[i],
                        offsets_[i + 1] - offsets_[i], lengths_[i], keys_[i]);
  }

  /// Encode and append \p pbn.
  void Append(const Pbn& pbn);

  /// Materialize element \p i as a heap Pbn.
  Pbn Materialize(size_t i) const { return (*this)[i].Materialize(); }

  /// Materialize the whole list.
  std::vector<Pbn> MaterializeAll() const;

  /// Build from a vector of Pbns (preserves order).
  static PackedPbnList FromPbns(const std::vector<Pbn>& pbns);

  /// Rebuild a list from a raw ordered-codec arena holding exactly \p count
  /// encoded numbers (the snapshot restore path). The offset, length and key
  /// columns are re-derived by walking the codec framing. InvalidArgument if
  /// the bytes are not exactly \p count well-formed encodings (length byte
  /// 1..4 per component, 0x00 terminator, no trailing bytes) or the numbers
  /// are not strictly increasing in document order — arbitrary (corrupt)
  /// input must never produce a list that violates the sortedness the
  /// binary-search paths rely on.
  static Result<PackedPbnList> FromArena(std::string arena, size_t count);

  /// Index range [first, last) of elements that \p scope is a prefix of
  /// (descendants-or-self of scope), by memcmp binary search on both ends
  /// (the list must be sorted in document order).
  std::pair<size_t, size_t> PrefixRange(const PackedPbnRef& scope) const;

  /// Reserve room for \p nodes elements of ~\p bytes_per_node encoded
  /// bytes.
  void Reserve(size_t nodes, size_t bytes_per_node = 8);

  /// Heap bytes held by the arena and columns.
  size_t MemoryUsage() const {
    return arena_.capacity() + offsets_.capacity() * sizeof(uint32_t) +
           lengths_.capacity() * sizeof(uint32_t) +
           keys_.capacity() * sizeof(uint64_t);
  }

  /// Arena bytes actually used (the packed size of the numbers).
  size_t arena_bytes() const { return arena_.size(); }

  /// \name Raw column access.
  /// The join inner loops hoist these base pointers into locals so output
  /// writes (which the compiler must assume alias the list members) do not
  /// force a reload per iteration.
  /// @{
  const char* arena_data() const { return arena_.data(); }
  const uint32_t* offsets_data() const { return offsets_.data(); }
  const uint32_t* lengths_data() const { return lengths_.data(); }
  const uint64_t* keys_data() const { return keys_.data(); }
  /// @}

 private:
  /// DecodeBlock front-codes against bytes already in arena_, so it appends
  /// through the members directly.
  friend Status DecodeBlock(std::string_view payload, size_t entries,
                            PackedPbnList* out);
  friend Status DecodeBlockScalar(std::string_view payload, size_t entries,
                                  PackedPbnList* out);

  std::string arena_;
  std::vector<uint32_t> offsets_;  // size() + 1 entries; offsets_[0] == 0
  std::vector<uint32_t> lengths_;  // component counts
  std::vector<uint64_t> keys_;     // PackedPbnRef::ComputeKey per element
};

/// \name Block skipping and the blocked arena codec.
///
/// Sorted lists carry their per-block min/max sort keys implicitly: with a
/// fixed block size of kPbnBlockEntries, block b's minimum is keys[b*B] and
/// its maximum keys[min((b+1)*B, n) - 1], so block skipping needs no side
/// structure and never goes stale on append. The on-disk blocked codec
/// (EncodeBlocked) stores the same min/max explicitly per block and
/// front-codes the arena bytes; DecodeBlock amortizes the ordered-codec
/// decode over a whole block, checking document order over the key column
/// with a SIMD kernel (AVX2/AVX-512, resolved once at runtime, scalar
/// fallback) that touches the arena only on equal-key pairs.
/// @{

/// Entries per block, shared by the in-memory skip stride and the on-disk
/// blocked codec. 256 entries of XMark-typical 8-16 byte encodings come to
/// roughly 2-4 KiB of arena per block.
inline constexpr size_t kPbnBlockEntries = 256;

/// \brief The instruction set the SIMD kernels resolved to at startup:
/// "avx512", "avx2" or "scalar" (the same CPU test as DecodeKernelIsa).
const char* BatchKernelIsa();

/// \brief Smallest sort key any strict prefix (ancestor) of \p probe can
/// have: the key of its one-component prefix, which is probe's key masked
/// to the byte span of its first component. Every longer prefix keeps more
/// of probe's own bytes, so its key is >= this bound; every element with a
/// smaller key is neither an ancestor of probe nor >= probe.
inline uint64_t MinStrictPrefixKeyBound(const PackedPbnRef& probe) {
  if (probe.size_bytes() < 2) return 0;
  uint32_t pb = 1u + static_cast<uint8_t>(probe.data()[0]);
  if (pb >= 8) return probe.key();
  return probe.key() & ~(~0ull >> (8 * pb));
}

/// \brief Encode \p list (which must be sorted in document order) into the
/// blocked on-disk form: a delta-varint block offset table, per-block
/// min/max sort keys, and per-block front-coded entry payloads (first entry
/// raw, then lcp + suffix per entry).
std::string EncodeBlocked(const PackedPbnList& list);

/// \brief Decode one block payload of \p entries front-coded entries,
/// appending to \p out. Validates framing byte-for-byte (component length
/// bytes 1..4, terminator, lcp bounds) and strict document order against
/// the previously appended entry, so corrupt payloads fail with
/// InvalidArgument and never produce an out-of-order list.
///
/// Batched: headers are parsed in one pass, the arena is assembled with a
/// single resize and straight memcpys, and the document-order check runs
/// over the key column with the SIMD kernel (DecodeKernelIsa), touching the
/// arena only on equal-key pairs. Byte-identical to DecodeBlockScalar
/// (tests/packed_pbn_test.cc enforces this on random and corrupt inputs).
Status DecodeBlock(std::string_view payload, size_t entries,
                   PackedPbnList* out);

/// \brief The reference one-entry-at-a-time decoder DecodeBlock is checked
/// against. Same contract, same validation.
Status DecodeBlockScalar(std::string_view payload, size_t entries,
                         PackedPbnList* out);

/// \brief The instruction set DecodeBlock's order-check kernel resolved to
/// at startup: "avx512", "avx2" or "scalar".
const char* DecodeKernelIsa();

/// \brief Decode a full EncodeBlocked blob holding exactly \p count
/// entries. Validates the offset table, the per-block min/max keys and
/// every entry; arbitrary corrupt input returns InvalidArgument.
Result<PackedPbnList> DecodeBlocked(std::string_view blob, size_t count);
/// @}

/// \brief A batch-decoded PBN column: every number of a list expanded once
/// into one flat uint32 value column plus a start-offset column.
///
/// The ordered-codec arena is the right resident format, but a merge join
/// that revisits the same prefix components for every group comparison
/// should not re-run the byte decoder per visit. Decoding a whole
/// PackedPbnList into this layout costs one linear pass; afterwards the
/// join inner loops are plain aligned uint32 compares over contiguous
/// memory (SIMD-friendly, branch-free per lane), and component i of element
/// n is O(1) instead of an O(i) byte scan.
///
///   values_ : |c(p_0,1)..c(p_0,l_0)|c(p_1,1)..|...                (uint32)
///   starts_ : |0|l_0|l_0+l_1|...|total|          (size() + 1 entries)
class DecodedPbnColumn {
 public:
  size_t size() const { return starts_.empty() ? 0 : starts_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// Component span of element \p i (length(i) entries).
  const uint32_t* comps(size_t i) const { return values_.data() + starts_[i]; }
  uint32_t length(size_t i) const { return starts_[i + 1] - starts_[i]; }

  /// Decode every element of \p list (one pass over the arena). Replaces
  /// the current contents.
  void FromList(const PackedPbnList& list);

  /// Append one already-decoded number (the non-arena entry point, e.g. a
  /// query context node whose Pbn is materialized anyway).
  void Append(const uint32_t* comps, uint32_t len) {
    values_.insert(values_.end(), comps, comps + len);
    starts_.push_back(static_cast<uint32_t>(values_.size()));
  }

  void Clear() {
    values_.clear();
    starts_.assign(1, 0);
  }

  void Reserve(size_t elements, size_t comps_per_element) {
    starts_.reserve(elements + 1);
    values_.reserve(elements * comps_per_element);
  }

  size_t MemoryUsage() const {
    return values_.capacity() * sizeof(uint32_t) +
           starts_.capacity() * sizeof(uint32_t);
  }

  DecodedPbnColumn() { starts_.push_back(0); }

 private:
  std::vector<uint32_t> values_;
  std::vector<uint32_t> starts_;
};

}  // namespace vpbn::num
