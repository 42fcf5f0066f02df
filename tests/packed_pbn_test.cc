/// \file packed_pbn_test.cc
/// \brief Property tests anchoring the packed columnar layer to the vector
/// world: PackedPbnRef decisions must be byte-identical to Pbn decisions,
/// and the packed structural joins must reproduce the vector joins exactly,
/// for every axis and thread count.

#include "pbn/packed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "pbn/axis.h"
#include "pbn/codec.h"
#include "pbn/structural_join.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"

namespace vpbn::num {
namespace {

constexpr Axis kAllAxes[] = {
    Axis::kSelf,           Axis::kChild,
    Axis::kParent,         Axis::kAncestor,
    Axis::kDescendant,     Axis::kAncestorOrSelf,
    Axis::kDescendantOrSelf, Axis::kFollowing,
    Axis::kPreceding,      Axis::kFollowingSibling,
    Axis::kPrecedingSibling};

/// Random number whose components cross all four payload widths of the
/// ordered codec (1..4 bytes), so the byte paths see every encoding shape.
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

/// A pair that is related (prefix / extension / sibling / equal) often
/// enough to exercise every axis branch, not just the disjoint ones.
std::pair<Pbn, Pbn> RandomPair(Rng* rng) {
  Pbn x = RandomPbn(rng);
  switch (rng->Uniform(5)) {
    case 0:  // unrelated
      return {x, RandomPbn(rng)};
    case 1:  // y extends x (x is an ancestor of y)
      return {x, x.Child(1 + static_cast<uint32_t>(rng->Uniform(5)))};
    case 2: {  // prefix of x (y is an ancestor of x)
      size_t n = 1 + rng->Uniform(x.length());
      return {x, x.Prefix(n)};
    }
    case 3: {  // sibling of x
      std::vector<uint32_t> comps = x.components();
      comps.back() = 1 + static_cast<uint32_t>(rng->Uniform(6));
      return {x, Pbn(std::move(comps))};
    }
    default:  // equal
      return {x, x};
  }
}

PackedPbnRef Encode(const Pbn& p, std::string* storage) {
  storage->clear();
  EncodeOrdered(p, storage);
  return PackedPbnRef(storage->data(), static_cast<uint32_t>(storage->size()),
                      static_cast<uint32_t>(p.length()));
}

TEST(PackedPbnRefTest, RandomPairsMatchVectorSemantics) {
  Rng rng(20260807);
  std::string bx, by;
  for (int iter = 0; iter < 10000; ++iter) {
    auto [x, y] = RandomPair(&rng);
    PackedPbnRef rx = Encode(x, &bx);
    PackedPbnRef ry = Encode(y, &by);

    // Document order: the memcmp Compare must agree with Pbn::operator<=>.
    auto expected = x <=> y;
    int got = rx.Compare(ry);
    EXPECT_EQ(got < 0, expected == std::strong_ordering::less);
    EXPECT_EQ(got > 0, expected == std::strong_ordering::greater);
    EXPECT_EQ(got == 0, expected == std::strong_ordering::equal);
    EXPECT_EQ(rx == ry, x == y);

    // Prefix tests and common-prefix length.
    EXPECT_EQ(rx.IsPrefixOf(ry), x.IsPrefixOf(y));
    EXPECT_EQ(rx.IsStrictPrefixOf(ry), x.IsStrictPrefixOf(y));
    EXPECT_EQ(rx.CommonPrefixLength(ry), x.CommonPrefixLength(y));

    // Every axis decision.
    for (Axis axis : kAllAxes) {
      EXPECT_EQ(PackedCheckAxis(axis, rx, ry), CheckAxis(axis, x, y))
          << "axis " << static_cast<int>(axis) << " x=" << x.ToString()
          << " y=" << y.ToString();
    }
  }
}

TEST(PackedPbnRefTest, DecodeRoundTripAndHashConsistency) {
  Rng rng(99);
  std::string bytes;
  std::vector<uint32_t> buf;
  for (int iter = 0; iter < 2000; ++iter) {
    Pbn p = RandomPbn(&rng);
    PackedPbnRef ref = Encode(p, &bytes);

    EXPECT_EQ(ref.length(), p.length());
    EXPECT_EQ(ref.Materialize(), p);
    ref.DecodeTo(&buf);
    EXPECT_EQ(buf, p.components());
    for (size_t i = 1; i <= p.length(); ++i) {
      EXPECT_EQ(ref.at1(i), p.at1(i));
    }
    PackedPbnRef::ComponentIterator it(ref);
    for (size_t i = 1; i <= p.length(); ++i) {
      ASSERT_TRUE(it.HasNext());
      EXPECT_EQ(it.Next(), p.at1(i));
    }
    EXPECT_FALSE(it.HasNext());

    // The packed and vector representations must hash identically, so a
    // packed ref can probe an unordered container keyed by Pbn.
    EXPECT_EQ(ref.Hash(), PbnHash{}(p));
    EXPECT_EQ(PackedPbnRefHash{}(ref), PbnHash{}(p));
  }
}

TEST(PackedPbnListTest, SortUniqueAndMergeMatchVectorAlgorithms) {
  Rng rng(1234);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Pbn> a, b;
    for (int i = 0; i < 200; ++i) a.push_back(RandomPbn(&rng));
    for (int i = 0; i < 150; ++i) b.push_back(RandomPbn(&rng));
    // Force duplicates.
    for (int i = 0; i < 20; ++i) {
      a.push_back(a[rng.Uniform(a.size())]);
      b.push_back(a[rng.Uniform(a.size())]);
    }

    PackedPbnList pa = PackedPbnList::FromPbns(a);
    PackedPbnList pb = PackedPbnList::FromPbns(b);
    pa.SortUnique();
    pb.SortUnique();

    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());

    EXPECT_EQ(pa.MaterializeAll(), a);
    EXPECT_EQ(pb.MaterializeAll(), b);

    PackedPbnList merged = PackedPbnList::MergeUnique(pa, pb);
    std::vector<Pbn> expected;
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(expected));
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    EXPECT_EQ(merged.MaterializeAll(), expected);
  }
}

TEST(PackedPbnListTest, LowerBoundAndPrefixRangeMatchLinearScan) {
  Rng rng(777);
  std::vector<Pbn> all;
  for (int i = 0; i < 500; ++i) all.push_back(RandomPbn(&rng));
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  PackedPbnList packed = PackedPbnList::FromPbns(all);

  std::string bytes;
  for (int iter = 0; iter < 500; ++iter) {
    // Mix of members, prefixes of members, and strangers.
    Pbn probe = RandomPbn(&rng);
    if (iter % 3 == 0) {
      probe = all[rng.Uniform(all.size())];
    } else if (iter % 3 == 1) {
      const Pbn& base = all[rng.Uniform(all.size())];
      probe = base.Prefix(1 + rng.Uniform(base.length()));
    }
    PackedPbnRef ref = Encode(probe, &bytes);

    size_t lb = packed.LowerBound(ref);
    size_t expected_lb =
        std::lower_bound(all.begin(), all.end(), probe) - all.begin();
    EXPECT_EQ(lb, expected_lb);

    auto [first, last] = packed.PrefixRange(ref);
    size_t nfirst = all.size(), nlast = all.size();
    for (size_t i = 0; i < all.size(); ++i) {
      if (probe.IsPrefixOf(all[i])) {
        if (nfirst == all.size()) nfirst = i;
        nlast = i + 1;
      }
    }
    if (nfirst == all.size()) nfirst = nlast = expected_lb;
    EXPECT_EQ(first, nfirst) << probe.ToString();
    EXPECT_EQ(last, nlast) << probe.ToString();
  }
}

/// Joins over random sorted lists: packed output must be byte-identical to
/// the vector output, sequential and parallel alike.
TEST(PackedJoinTest, RandomListsMatchVectorJoins) {
  Rng rng(4242);
  common::ThreadPool pool2(2);
  common::ThreadPool pool4(4);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Pbn> ancestors, descendants;
    size_t na = 100 + rng.Uniform(400), nd = 2000 + rng.Uniform(4000);
    for (size_t i = 0; i < na; ++i) ancestors.push_back(RandomPbn(&rng));
    for (size_t i = 0; i < nd; ++i) {
      // Bias descendants under the ancestor population so joins hit.
      if (rng.Bernoulli(0.7) && !ancestors.empty()) {
        Pbn base = ancestors[rng.Uniform(ancestors.size())];
        descendants.push_back(
            rng.Bernoulli(0.5)
                ? base.Child(1 + static_cast<uint32_t>(rng.Uniform(4)))
                : base.Child(1 + static_cast<uint32_t>(rng.Uniform(4)))
                      .Child(1 + static_cast<uint32_t>(rng.Uniform(4))));
      } else {
        descendants.push_back(RandomPbn(&rng));
      }
    }
    std::sort(ancestors.begin(), ancestors.end());
    ancestors.erase(std::unique(ancestors.begin(), ancestors.end()),
                    ancestors.end());
    std::sort(descendants.begin(), descendants.end());
    descendants.erase(std::unique(descendants.begin(), descendants.end()),
                      descendants.end());

    PackedPbnList pa = PackedPbnList::FromPbns(ancestors);
    PackedPbnList pd = PackedPbnList::FromPbns(descendants);

    std::vector<JoinPair> ad = AncestorDescendantJoin(ancestors, descendants);
    std::vector<JoinPair> pc = ParentChildJoin(ancestors, descendants);

    JoinCounters jc;
    EXPECT_EQ(AncestorDescendantJoin(pa, pd, nullptr, &jc), ad);
    EXPECT_EQ(ParentChildJoin(pa, pd, nullptr, nullptr), pc);
    EXPECT_GT(jc.comparisons, 0u);
    EXPECT_GT(jc.bytes_compared, 0u);

    for (common::ThreadPool* pool : {&pool2, &pool4}) {
      EXPECT_EQ(AncestorDescendantJoin(pa, pd, pool, nullptr), ad);
      EXPECT_EQ(ParentChildJoin(pa, pd, pool, nullptr), pc);
    }
  }
}

/// The same identity over a real type index (XMark-style auctions): join
/// auction ancestors with personref descendants through every path.
TEST(PackedJoinTest, TypeIndexJoinsMatchAcrossThreadCounts) {
  workload::AuctionsOptions opts;
  opts.num_items = 100;
  opts.num_people = 80;
  opts.num_auctions = 400;
  xml::Document doc = workload::GenerateAuctions(opts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);

  auto auction =
      stored.dataguide().FindByPath("site.open_auctions.auction");
  auto personref = stored.dataguide().FindByPath(
      "site.open_auctions.auction.bidder.personref");
  auto bidder =
      stored.dataguide().FindByPath("site.open_auctions.auction.bidder");
  ASSERT_TRUE(auction.ok());
  ASSERT_TRUE(personref.ok());
  ASSERT_TRUE(bidder.ok());

  // The heap baseline: each type's numbers from a fresh Numbering of the
  // document, read through the type index's aligned NodeIds.
  const Numbering numbering = Numbering::Number(doc);
  auto numbers_of = [&](dg::TypeId t) {
    std::vector<Pbn> out;
    for (xml::NodeId id : stored.NodeIdsOfType(t)) {
      out.push_back(numbering.OfNode(id));
    }
    return out;
  };
  const std::vector<Pbn> anc = numbers_of(*auction);
  const std::vector<Pbn> desc = numbers_of(*personref);
  const std::vector<Pbn> kids = numbers_of(*bidder);
  const PackedPbnList& panc = stored.PackedNodesOfType(*auction);
  const PackedPbnList& pdesc = stored.PackedNodesOfType(*personref);
  const PackedPbnList& pkids = stored.PackedNodesOfType(*bidder);

  // The packed arenas must mirror the heap numbers exactly.
  EXPECT_EQ(panc.MaterializeAll(), anc);
  EXPECT_EQ(pdesc.MaterializeAll(), desc);

  std::vector<JoinPair> ad = AncestorDescendantJoin(anc, desc);
  std::vector<JoinPair> pc = ParentChildJoin(anc, kids);
  ASSERT_FALSE(ad.empty());
  ASSERT_FALSE(pc.empty());

  EXPECT_EQ(AncestorDescendantJoin(panc, pdesc, nullptr, nullptr), ad);
  EXPECT_EQ(ParentChildJoin(panc, pkids, nullptr, nullptr), pc);
  for (int threads : {2, 4}) {
    common::ThreadPool pool(threads);
    EXPECT_EQ(AncestorDescendantJoin(panc, pdesc, &pool, nullptr), ad);
    EXPECT_EQ(ParentChildJoin(panc, pkids, &pool, nullptr), pc);
  }
}

TEST(PackedPbnListTest, AppendPrefixBuildsAncestors) {
  std::string bytes;
  Pbn p({3, 0x1234, 7, 0x123456});
  PackedPbnRef ref = Encode(p, &bytes);
  PackedPbnList list;
  for (size_t n = 1; n <= p.length(); ++n) list.AppendPrefix(ref, n);
  ASSERT_EQ(list.size(), p.length());
  for (size_t n = 1; n <= p.length(); ++n) {
    EXPECT_EQ(list.Materialize(n - 1), p.Prefix(n));
  }
}

TEST(PackedPbnListTest, MemoryUsageCountsArena) {
  std::vector<Pbn> pbns;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) pbns.push_back(RandomPbn(&rng));
  PackedPbnList list = PackedPbnList::FromPbns(pbns);
  EXPECT_GE(list.MemoryUsage(), list.arena_bytes());
  // Packed must be far below the vector representation's footprint.
  size_t vector_bytes = pbns.capacity() * sizeof(Pbn);
  for (const Pbn& p : pbns) vector_bytes += p.HeapMemoryUsage();
  EXPECT_LT(list.MemoryUsage(), vector_bytes);
}

}  // namespace
}  // namespace vpbn::num
