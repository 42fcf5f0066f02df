/// \file batch_kernels_test.cc
/// \brief Property tests pinning the batched kernels to the scalar truth:
/// DecodeBlock/DecodeBlocked must reproduce the per-entry codec byte for
/// byte, and the block-skipping joins, over whole lists and over row
/// selections, must emit what the vector reference joins emit.

#include "pbn/packed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/varint.h"
#include "pbn/codec.h"
#include "pbn/structural_join.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"

namespace vpbn::num {
namespace {

/// Random number whose components cross all four payload widths of the
/// ordered codec, so the kernels see every encoding shape — including
/// encodings shorter and longer than the 8-byte sort key.
Pbn RandomPbn(Rng* rng) {
  size_t len = 1 + rng->Uniform(8);
  std::vector<uint32_t> comps;
  comps.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    switch (rng->Uniform(4)) {
      case 0:
        comps.push_back(1 + static_cast<uint32_t>(rng->Uniform(0xFE)));
        break;
      case 1:
        comps.push_back(0x100 + static_cast<uint32_t>(rng->Uniform(0xFF00)));
        break;
      case 2:
        comps.push_back(0x10000 +
                        static_cast<uint32_t>(rng->Uniform(0xFF0000)));
        break;
      default:
        comps.push_back(0x1000000 +
                        static_cast<uint32_t>(rng->Uniform(0xF000000)));
        break;
    }
  }
  return Pbn(std::move(comps));
}

/// A sorted, duplicate-free list of \p n random numbers, biased so many
/// entries share prefixes (ancestor relations and equal sort keys occur).
PackedPbnList RandomSortedList(Rng* rng, size_t n) {
  std::vector<Pbn> pbns;
  pbns.reserve(n);
  while (pbns.size() < n) {
    Pbn base = RandomPbn(rng);
    pbns.push_back(base);
    // Children and grandchildren of earlier entries create strict-prefix
    // pairs and clustered keys.
    size_t extra = rng->Uniform(4);
    for (size_t i = 0; i < extra && pbns.size() < n; ++i) {
      base = base.Child(1 + static_cast<uint32_t>(rng->Uniform(5)));
      pbns.push_back(base);
    }
  }
  std::sort(pbns.begin(), pbns.end());
  pbns.erase(std::unique(pbns.begin(), pbns.end()), pbns.end());
  return PackedPbnList::FromPbns(pbns);
}

TEST(BatchKernelTest, IsaReportsKnownName) {
  std::string isa = BatchKernelIsa();
  EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "scalar") << isa;
}

/// MinStrictPrefixKeyBound must lower-bound the key of every strict prefix:
/// elements with smaller keys can be skipped without changing any join.
TEST(BatchKernelTest, MinStrictPrefixKeyBoundIsALowerBound) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    Pbn d = RandomPbn(&rng);
    std::string enc;
    EncodeOrdered(d, &enc);
    PackedPbnRef dref(enc.data(), static_cast<uint32_t>(enc.size()),
                      static_cast<uint32_t>(d.length()));
    uint64_t bound = MinStrictPrefixKeyBound(dref);
    EXPECT_LE(bound, dref.key());
    std::vector<std::string> prefix_encs;
    for (size_t n = 1; n < d.length(); ++n) {
      std::string pe_buf;
      EncodeOrdered(d.Prefix(n), &pe_buf);
      prefix_encs.push_back(std::move(pe_buf));
      const std::string& pe = prefix_encs.back();
      PackedPbnRef pref(pe.data(), static_cast<uint32_t>(pe.size()),
                        static_cast<uint32_t>(n));
      ASSERT_TRUE(pref.IsStrictPrefixOf(dref));
      ASSERT_GE(pref.key(), bound)
          << d.ToString() << " prefix length " << n;
    }
  }
}

/// The blocked codec must reproduce the per-entry codec byte for byte:
/// same arena bytes, offsets, lengths and keys after a round trip.
TEST(BatchKernelTest, BlockedCodecRoundTripsByteIdentical) {
  Rng rng(99);
  // Sizes straddle the block boundary: empty, one entry, one byte short of
  // a block, exact blocks, and a large multi-block list.
  const size_t sizes[] = {0,   1,   kPbnBlockEntries - 1, kPbnBlockEntries,
                          kPbnBlockEntries + 1,           3 * kPbnBlockEntries,
                          12000};
  for (size_t n : sizes) {
    PackedPbnList list = RandomSortedList(&rng, n);
    std::string blob = EncodeBlocked(list);
    auto decoded = DecodeBlocked(blob, list.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), list.size());
    EXPECT_EQ(decoded->arena_bytes(), list.arena_bytes());
    EXPECT_EQ(std::string_view(decoded->arena_data(), decoded->arena_bytes()),
              std::string_view(list.arena_data(), list.arena_bytes()));
    for (size_t i = 0; i < list.size(); ++i) {
      ASSERT_EQ(decoded->offsets_data()[i], list.offsets_data()[i]);
      ASSERT_EQ(decoded->lengths_data()[i], list.lengths_data()[i]);
      ASSERT_EQ(decoded->keys_data()[i], list.keys_data()[i]);
    }
  }
}

/// Corrupt blocked blobs must fail with InvalidArgument, never decode into
/// an out-of-order list — truncation at every offset, then random byte
/// flips.
TEST(BatchKernelTest, BlockedCodecRejectsCorruptInput) {
  Rng rng(123);
  PackedPbnList list = RandomSortedList(&rng, 600);
  std::string blob = EncodeBlocked(list);
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    auto r = DecodeBlocked(std::string_view(blob.data(), cut), list.size());
    if (r.ok()) {
      // A truncated blob can only legitimately decode if it is the empty
      // prefix of an empty list — not the case here.
      ADD_FAILURE() << "truncation at " << cut << " decoded successfully";
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 + rng.Uniform(255)));
    auto r = DecodeBlocked(mutated, list.size());
    if (r.ok()) {
      // The flip may land in dead padding of a sort key byte it actually
      // checks — if it decodes, the result must still be well-formed and
      // sorted.
      ASSERT_EQ(r->size(), list.size());
      for (size_t i = 1; i < r->size(); ++i) {
        ASSERT_LT((*r)[i - 1].Compare((*r)[i]), 0);
      }
    }
  }
}

/// Parse an EncodeBlocked blob's header and return the per-block payload
/// slices (views into \p blob) plus the entries-per-block split, so tests
/// can drive DecodeBlock / DecodeBlockScalar on individual blocks.
bool SplitBlockPayloads(std::string_view blob, size_t count,
                        std::vector<std::string_view>* payloads,
                        std::vector<size_t>* entries) {
  auto n = GetVarint64(&blob);
  auto blocks = GetVarint64(&blob);
  if (!n.ok() || !blocks.ok() || *n != count) return false;
  std::vector<uint64_t> ends;
  if (!GetDeltaU64Array(&blob, *blocks, &ends).ok()) return false;
  if (blob.size() < *blocks * 16) return false;
  blob.remove_prefix(*blocks * 16);  // per-block min/max directory keys
  uint64_t prev_end = 0;
  for (size_t b = 0; b < *blocks; ++b) {
    payloads->push_back(blob.substr(prev_end, ends[b] - prev_end));
    entries->push_back(std::min(kPbnBlockEntries,
                                count - b * kPbnBlockEntries));
    prev_end = ends[b];
  }
  return true;
}

TEST(BatchKernelTest, DecodeKernelIsaReportsKnownName) {
  std::string isa = DecodeKernelIsa();
  EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "scalar") << isa;
}

/// The batched DecodeBlock must be byte-identical to DecodeBlockScalar on
/// every valid block: same arena bytes, offsets, lengths and keys, with
/// blocks stacked into one list so the cross-block order check runs too.
TEST(BatchKernelTest, DecodeBlockMatchesScalarByteForByte) {
  Rng rng(20260809);
  const size_t sizes[] = {1, 2, kPbnBlockEntries - 1, kPbnBlockEntries,
                          kPbnBlockEntries + 1, 4 * kPbnBlockEntries + 17};
  for (size_t n : sizes) {
    PackedPbnList list = RandomSortedList(&rng, n);
    std::string blob = EncodeBlocked(list);
    std::vector<std::string_view> payloads;
    std::vector<size_t> entries;
    ASSERT_TRUE(SplitBlockPayloads(blob, list.size(), &payloads, &entries));

    PackedPbnList batched, scalar;
    for (size_t b = 0; b < payloads.size(); ++b) {
      ASSERT_TRUE(DecodeBlock(payloads[b], entries[b], &batched).ok());
      ASSERT_TRUE(DecodeBlockScalar(payloads[b], entries[b], &scalar).ok());
    }
    ASSERT_EQ(batched.size(), scalar.size());
    ASSERT_EQ(batched.arena_bytes(), scalar.arena_bytes());
    EXPECT_EQ(std::string_view(batched.arena_data(), batched.arena_bytes()),
              std::string_view(scalar.arena_data(), scalar.arena_bytes()));
    for (size_t i = 0; i < batched.size(); ++i) {
      ASSERT_EQ(batched.offsets_data()[i], scalar.offsets_data()[i]);
      ASSERT_EQ(batched.lengths_data()[i], scalar.lengths_data()[i]);
      ASSERT_EQ(batched.keys_data()[i], scalar.keys_data()[i]);
    }
  }
}

/// Both decoders must agree on rejection: out-of-order blocks, duplicate
/// adjacent entries, truncations and random byte flips all produce the same
/// ok/error verdict from the batched and scalar paths.
TEST(BatchKernelTest, DecodeBlockAgreesWithScalarOnCorruptInput) {
  Rng rng(555);

  // Out-of-order and duplicate entries: EncodeBlocked does not check order,
  // so encoding a misordered list yields structurally valid payloads both
  // decoders must reject via the document-order check.
  std::vector<Pbn> pbns;
  for (int i = 0; i < 50; ++i) pbns.push_back(RandomPbn(&rng));
  std::sort(pbns.begin(), pbns.end());
  pbns.erase(std::unique(pbns.begin(), pbns.end()), pbns.end());
  std::swap(pbns[3], pbns[7]);                // misordered
  std::vector<Pbn> dup = pbns;
  std::sort(dup.begin(), dup.end());
  dup.insert(dup.begin() + 5, dup[5]);        // adjacent duplicate
  for (const std::vector<Pbn>& bad : {pbns, dup}) {
    std::string blob = EncodeBlocked(PackedPbnList::FromPbns(bad));
    std::vector<std::string_view> payloads;
    std::vector<size_t> entries;
    ASSERT_TRUE(SplitBlockPayloads(blob, bad.size(), &payloads, &entries));
    PackedPbnList batched, scalar;
    Status bs = DecodeBlock(payloads[0], entries[0], &batched);
    Status ss = DecodeBlockScalar(payloads[0], entries[0], &scalar);
    EXPECT_FALSE(bs.ok());
    EXPECT_FALSE(ss.ok());
    EXPECT_EQ(bs.ToString(), ss.ToString());
  }

  // Truncations and byte flips of a multi-block list's payloads.
  PackedPbnList list = RandomSortedList(&rng, 2 * kPbnBlockEntries + 40);
  std::string blob = EncodeBlocked(list);
  std::vector<std::string_view> payloads;
  std::vector<size_t> entries;
  ASSERT_TRUE(SplitBlockPayloads(blob, list.size(), &payloads, &entries));
  for (size_t b = 0; b < payloads.size(); ++b) {
    const std::string payload(payloads[b]);
    for (size_t cut = 0; cut < payload.size(); cut += 7) {
      PackedPbnList batched, scalar;
      Status bs = DecodeBlock(std::string_view(payload.data(), cut),
                              entries[b], &batched);
      Status ss = DecodeBlockScalar(std::string_view(payload.data(), cut),
                                    entries[b], &scalar);
      ASSERT_EQ(bs.ok(), ss.ok()) << "block " << b << " cut " << cut;
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = payload;
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] =
          static_cast<char>(mutated[pos] ^ (1 + rng.Uniform(255)));
      PackedPbnList batched, scalar;
      Status bs = DecodeBlock(mutated, entries[b], &batched);
      Status ss = DecodeBlockScalar(mutated, entries[b], &scalar);
      ASSERT_EQ(bs.ok(), ss.ok()) << "block " << b << " pos " << pos;
      if (bs.ok()) {
        // Both accepted: the decoded columns must still agree exactly.
        ASSERT_EQ(batched.size(), scalar.size());
        EXPECT_EQ(
            std::string_view(batched.arena_data(), batched.arena_bytes()),
            std::string_view(scalar.arena_data(), scalar.arena_bytes()));
      }
    }
  }
}

/// The packed joins skip blocks; their output must equal the vector
/// reference joins', which skip nothing, over random lists.
TEST(BatchKernelTest, JoinOutputIdenticalWithBlockSkipping) {
  Rng rng(31337);

  for (int iter = 0; iter < 6; ++iter) {
    PackedPbnList anc = RandomSortedList(&rng, 800);
    std::vector<Pbn> desc_pbns;
    for (size_t i = 0; i < 6000; ++i) {
      if (rng.Bernoulli(0.6)) {
        Pbn base = anc.Materialize(rng.Uniform(anc.size()));
        desc_pbns.push_back(
            base.Child(1 + static_cast<uint32_t>(rng.Uniform(4))));
      } else {
        desc_pbns.push_back(RandomPbn(&rng));
      }
    }
    std::sort(desc_pbns.begin(), desc_pbns.end());
    desc_pbns.erase(std::unique(desc_pbns.begin(), desc_pbns.end()),
                    desc_pbns.end());
    PackedPbnList desc = PackedPbnList::FromPbns(desc_pbns);
    const std::vector<Pbn> anc_pbns = anc.MaterializeAll();

    JoinCounters jc;
    EXPECT_EQ(AncestorDescendantJoin(anc, desc, &jc),
              AncestorDescendantJoin(anc_pbns, desc_pbns));
    EXPECT_EQ(ParentChildJoin(anc, desc, nullptr),
              ParentChildJoin(anc_pbns, desc_pbns));
  }
}

/// On a real auctions index the packed join must both match the vector
/// reference join and actually skip blocks (the counter observability the
/// STATS surface reports).
TEST(BatchKernelTest, AuctionsJoinSkipsBlocksAndMatches) {
  workload::AuctionsOptions opts;
  opts.num_items = 200;
  opts.num_people = 150;
  opts.num_auctions = 900;
  xml::Document doc = workload::GenerateAuctions(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);

  auto auction = stored.dataguide().FindByPath("site.open_auctions.auction");
  auto personref = stored.dataguide().FindByPath(
      "site.open_auctions.auction.bidder.personref");
  ASSERT_TRUE(auction.ok());
  ASSERT_TRUE(personref.ok());
  const PackedPbnList& anc = stored.PackedNodesOfType(*auction);
  const PackedPbnList& desc = stored.PackedNodesOfType(*personref);
  ASSERT_GT(desc.size(), kPbnBlockEntries);

  const std::vector<Pbn> desc_pbns = desc.MaterializeAll();
  JoinCounters skip_jc;
  EXPECT_EQ(AncestorDescendantJoin(anc, desc, &skip_jc),
            AncestorDescendantJoin(anc.MaterializeAll(), desc_pbns));
  // Dense overlapping lists may legitimately skip nothing; join a sparse
  // ancestor subset to force key gaps wider than a block.
  // Keep every 300th auction so the gaps between kept ancestors span more
  // than kPbnBlockEntries personrefs — the descendant-side skip needs a
  // whole block strictly between two consecutive ancestors.
  // The subset is a row selection joined in place over the full arena.
  std::vector<uint32_t> rows;
  std::vector<Pbn> sparse_pbns;
  for (uint32_t i = 0; i < anc.size(); i += 300) {
    rows.push_back(i);
    sparse_pbns.push_back(anc.Materialize(i));
  }
  JoinCounters sparse_jc;
  EXPECT_EQ(AncestorDescendantJoin(PackedRows(anc, rows.data(), rows.size()),
                                   desc, &sparse_jc),
            AncestorDescendantJoin(sparse_pbns, desc_pbns));
  EXPECT_GT(skip_jc.block_skips + sparse_jc.block_skips, 0u);
}

}  // namespace
}  // namespace vpbn::num
