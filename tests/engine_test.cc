/// \file engine_test.cc
/// \brief QueryEngine facade: planning per substrate, prepare-once/execute-
/// many, default options + per-request overrides, epoch/provenance stamps,
/// typed results and StringValues, and concurrent Execute calls on shared
/// engines.

#include "query/engine.h"

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pbn/numbering.h"
#include "query/eval_bulk.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "vpbn/virtual_document.h"
#include "workload/auctions.h"

namespace vpbn::query {
namespace {

struct Fixture {
  std::shared_ptr<const xml::Document> doc =
      std::make_shared<const xml::Document>(testutil::PaperFigure2());
  std::shared_ptr<const storage::StoredDocument> stored =
      std::make_shared<const storage::StoredDocument>(
          storage::StoredDocument::Build(*doc));
};

TEST(EngineTest, PlansPerSubstrate) {
  Fixture f;
  QueryEngine nav(f.doc);
  QueryEngine idx(f.stored);
  auto v = virt::VirtualDocument::OpenShared(f.stored, testutil::SamSpec());
  ASSERT_TRUE(v.ok());
  QueryEngine virt_engine(*v);

  auto p_nav = nav.Prepare("//book/title");
  ASSERT_TRUE(p_nav.ok());
  EXPECT_EQ(p_nav->plan(), PlanKind::kNav);

  // One rule plans a stored document: bulk exactly for the paths in the
  // bulk fragment (child, descendant, parent and ancestor steps with
  // existence, value, attribute and boolean predicates), the per-node
  // indexed plan for every other path.
  struct Case {
    const char* path;
    PlanKind plan;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"//title", PlanKind::kBulk},
           {"/data/book/title", PlanKind::kBulk},
           {"//book[author/name]/title", PlanKind::kBulk},
           {"//book[title = \"X\"]/author", PlanKind::kBulk},
           {"//book[@year > 1990]", PlanKind::kBulk},
           {"//book[contains(title, \"X\")]", PlanKind::kBulk},
           {"//book//text()", PlanKind::kBulk},
           {"//book[not(author)]", PlanKind::kBulk},
           {"//book[author or title]", PlanKind::kBulk},
           {"//book[author and not(@year = 1) or publisher]", PlanKind::kBulk},
           {"//book[@year]", PlanKind::kBulk},
           {"//title/..", PlanKind::kBulk},
           {"/data/..", PlanKind::kBulk},
           {"//name/ancestor::book", PlanKind::kBulk},
           {"//name/ancestor-or-self::*", PlanKind::kBulk},
           {"/data/book[2]/title", PlanKind::kIndexed},
           {"//author/following-sibling::*", PlanKind::kIndexed},
           {"//book[count(author) = 1]", PlanKind::kIndexed},
           {"//book[title = author/name]", PlanKind::kIndexed},
           {"//book[../book]", PlanKind::kIndexed},
           {"//title/following::name", PlanKind::kIndexed},
       }) {
    SCOPED_TRACE(c.path);
    auto q = idx.Prepare(c.path);
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_EQ(q->plan(), c.plan);
    EXPECT_EQ(q->plan(),
              InBulkFragment(q->path()) ? PlanKind::kBulk : PlanKind::kIndexed);
  }

  auto p_virt = virt_engine.Prepare("//title");
  ASSERT_TRUE(p_virt.ok());
  EXPECT_EQ(p_virt->plan(), PlanKind::kVirtual);
}

TEST(EngineTest, SameAnswerOnEverySubstrate) {
  Fixture f;
  QueryEngine nav(f.doc);
  QueryEngine idx(f.stored);
  for (const char* path : {"//title", "//book[author/name]/title",
                           "/data/book[2]/title", "//publisher/location"}) {
    SCOPED_TRACE(path);
    auto a = nav.Execute(path);
    auto b = idx.Execute(path);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    // Same nodes selected: the stored document shares the DOM's NodeIds.
    EXPECT_EQ(a->node_ids(), b->node_ids());
  }
}

TEST(EngineTest, PrepareOnceExecuteMany) {
  Fixture f;
  QueryEngine engine(f.stored);
  auto prepared = engine.Prepare("//book/title");
  ASSERT_TRUE(prepared.ok());
  auto r1 = engine.Execute(*prepared);
  auto r2 = engine.Execute(*prepared, {.collect_stats = true});
  auto r3 = engine.Execute(*prepared);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r1->node_ids(), r2->node_ids());
  EXPECT_EQ(r1->node_ids(), r3->node_ids());
  EXPECT_EQ(r2->stats().result_nodes, r1->size());
}

TEST(EngineTest, StatsAreCollectedOnRequest) {
  Fixture f;
  QueryEngine engine(f.stored);
  auto bare = engine.Execute("//book[author/name]/title", {});
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->stats().steps.empty());
  EXPECT_EQ(bare->stats().plan, "bulk");

  // A positional predicate forces the per-node indexed plan, which records
  // per-step stats.
  auto with = engine.Execute("/data/book[2]/title", {.collect_stats = true});
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with->stats().plan, "indexed");
  EXPECT_GT(with->stats().nodes_scanned, 0u);
  EXPECT_FALSE(with->stats().steps.empty());
  EXPECT_FALSE(with->stats().ToString().empty());
}

TEST(EngineTest, StringValuesPerSubstrate) {
  Fixture f;
  QueryEngine nav(f.doc);
  auto r = nav.Execute("//book/title");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(nav.StringValues(*r), (std::vector<std::string>{"X", "Y"}));

  auto v = virt::VirtualDocument::OpenShared(f.stored, testutil::SamSpec());
  ASSERT_TRUE(v.ok());
  QueryEngine virt_engine(*v);
  auto titles = virt_engine.Execute("/title/text()");
  ASSERT_TRUE(titles.ok());
  EXPECT_EQ(virt_engine.StringValues(*titles),
            (std::vector<std::string>{"X", "Y"}));
}

TEST(EngineTest, ParseErrorsSurfaceFromPrepare) {
  Fixture f;
  QueryEngine engine(f.stored);
  auto p = engine.Prepare("//book[");
  EXPECT_FALSE(p.ok());
  auto r = engine.Execute("//book[", {});
  EXPECT_FALSE(r.ok());
}

TEST(EngineTest, PlanCacheHitsOnRepeatedPrepare) {
  Fixture f;
  QueryEngine engine(f.stored);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
  EXPECT_EQ(engine.plan_cache_misses(), 0u);

  auto first = engine.Prepare("//book/title");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
  EXPECT_EQ(engine.plan_cache_size(), 1u);

  auto second = engine.Prepare("//book/title");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
  // The cached plan is the same parse.
  EXPECT_EQ(&first->path(), &second->path());
  EXPECT_EQ(second->plan(), first->plan());

  // One-shot Execute goes through the same cache.
  auto r = engine.Execute("//book/title", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine.plan_cache_hits(), 2u);
  EXPECT_EQ(r->stats().plan_cache_hits, 2u);
  EXPECT_EQ(r->stats().plan_cache_misses, 1u);

  // Parse errors are not cached.
  auto bad = engine.Prepare("//book[");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(engine.plan_cache_size(), 1u);
}

TEST(EngineTest, PlanCacheEvictsLeastRecentlyUsed) {
  Fixture f;
  QueryEngine engine(f.stored);
  engine.SetPlanCacheCapacity(2);

  ASSERT_TRUE(engine.Prepare("//title").ok());          // {title}
  ASSERT_TRUE(engine.Prepare("//book").ok());           // {book, title}
  ASSERT_TRUE(engine.Prepare("//title").ok());          // hit, bumps title
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
  ASSERT_TRUE(engine.Prepare("//publisher").ok());      // evicts book
  EXPECT_EQ(engine.plan_cache_size(), 2u);

  ASSERT_TRUE(engine.Prepare("//book").ok());  // miss: evicted; evicts title
  EXPECT_EQ(engine.plan_cache_hits(), 1u);
  EXPECT_EQ(engine.plan_cache_misses(), 4u);
  ASSERT_TRUE(engine.Prepare("//publisher").ok());      // still cached
  EXPECT_EQ(engine.plan_cache_hits(), 2u);

  // Capacity 0 disables caching entirely.
  engine.SetPlanCacheCapacity(0);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  ASSERT_TRUE(engine.Prepare("//title").ok());
  ASSERT_TRUE(engine.Prepare("//title").ok());
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  EXPECT_EQ(engine.plan_cache_hits(), 2u);  // no new hits
}

TEST(EngineTest, CachedPlanExecutesIdentically) {
  Fixture f;
  QueryEngine engine(f.stored);
  auto p1 = engine.Prepare("//book[author/name]/title");
  ASSERT_TRUE(p1.ok());
  auto r1 = engine.Execute(*p1, {});
  auto p2 = engine.Prepare("//book[author/name]/title");  // cache hit
  ASSERT_TRUE(p2.ok());
  auto r2 = engine.Execute(*p2, {.collect_stats = true});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->node_ids(), r2->node_ids());
}

TEST(EngineTest, PackedComparisonCountersSurfaceInStats) {
  Fixture f;
  QueryEngine engine(f.stored);
  // Bulk plan: the packed structural joins must report their work.
  auto r = engine.Execute("//book[author/name]/title", {.collect_stats = true});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats().plan, "bulk");
  EXPECT_GT(r->stats().pbn_comparisons, 0u);
  EXPECT_GT(r->stats().bytes_compared, 0u);
}

TEST(EngineTest, DefaultOptionsMergeUnderOverrides) {
  Fixture f;
  QueryEngine engine(f.stored);

  // Out of the box the defaults are the ExecOptions defaults.
  EXPECT_EQ(engine.EffectiveOptions({}), ExecOptions{});

  engine.SetDefaultOptions({.collect_stats = true});
  EXPECT_TRUE(engine.default_options().collect_stats);

  // No overrides: the defaults verbatim.
  EXPECT_EQ(engine.EffectiveOptions({}), engine.default_options());

  // A set override replaces its default; the inert threads field changes
  // nothing.
  EXPECT_EQ(engine.EffectiveOptions({.threads = 4}), engine.default_options());
  ExecOptions eff = engine.EffectiveOptions({.collect_stats = false});
  EXPECT_FALSE(eff.collect_stats);

  // Execute actually runs with the merge: defaults say collect_stats.
  auto r = engine.Execute("/data/book[2]/title", {});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->stats().steps.empty());

  // ...and a per-request override wins without touching the defaults.
  auto quiet = engine.Execute("/data/book[2]/title", {.collect_stats = false});
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->stats().steps.empty());
  EXPECT_TRUE(engine.default_options().collect_stats);
}

TEST(EngineTest, PreparedQueryCarriesProvenanceStamp) {
  Fixture f;
  QueryEngine a(f.stored);
  QueryEngine b(f.stored);
  EXPECT_NE(a.engine_id(), b.engine_id());

  auto p = a.Prepare("//book/title");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->engine_id(), a.engine_id());
  EXPECT_EQ(p->epoch(), a.epoch());

  // A plan prepared on engine A must not execute on engine B, even though
  // both view the same document.
  auto r = b.Execute(*p, {});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal()) << r.status();
}

TEST(EngineTest, SetEpochInvalidatesPlansAndCache) {
  Fixture f;
  QueryEngine engine(f.stored);
  engine.SetEpoch(7);
  EXPECT_EQ(engine.epoch(), 7u);

  auto p = engine.Prepare("//book/title");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->epoch(), 7u);
  ASSERT_TRUE(engine.Execute(*p, {}).ok());
  EXPECT_EQ(engine.plan_cache_size(), 1u);

  // Bumping the epoch clears the plan cache and rejects the stale plan.
  engine.SetEpoch(8);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  auto stale = engine.Execute(*p, {});
  EXPECT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsInternal()) << stale.status();

  // Re-preparing the same text under the new epoch works again.
  auto fresh = engine.Prepare("//book/title");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->epoch(), 8u);
  EXPECT_TRUE(engine.Execute(*fresh, {}).ok());

  // Same-value SetEpoch is a no-op (the cache survives).
  ASSERT_TRUE(engine.Prepare("//book").ok());
  size_t size_before = engine.plan_cache_size();
  engine.SetEpoch(8);
  EXPECT_EQ(engine.plan_cache_size(), size_before);
}

TEST(EngineTest, SetStatsEpochInvalidatesPlansAndCache) {
  // Plans carry a statistics-epoch stamp alongside the document epoch: a
  // plan costed under old statistics must not survive a statistics refresh,
  // or the cost model's choice would silently go stale.
  Fixture f;
  QueryEngine engine(f.stored);
  engine.SetStatsEpoch(3);
  EXPECT_EQ(engine.stats_epoch(), 3u);

  auto p = engine.Prepare("//book/title");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->stats_epoch(), 3u);
  ASSERT_TRUE(engine.Execute(*p, {}).ok());
  EXPECT_EQ(engine.plan_cache_size(), 1u);

  // Bumping the stats epoch clears the plan cache and rejects the stale
  // plan, exactly like a document-epoch bump.
  engine.SetStatsEpoch(4);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  auto stale = engine.Execute(*p, {});
  EXPECT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsInternal()) << stale.status();

  // Re-preparing under the new stats epoch works again.
  auto fresh = engine.Prepare("//book/title");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->stats_epoch(), 4u);
  EXPECT_TRUE(engine.Execute(*fresh, {}).ok());

  // Same-value SetStatsEpoch is a no-op (the cache survives).
  size_t size_before = engine.plan_cache_size();
  engine.SetStatsEpoch(4);
  EXPECT_EQ(engine.plan_cache_size(), size_before);
}

TEST(EngineTest, ExecStatsJsonIsSingleLineAndComplete) {
  Fixture f;
  QueryEngine engine(f.stored);
  auto r = engine.Execute("/data/book[2]/title", {.collect_stats = true});
  ASSERT_TRUE(r.ok());
  std::string json = r->stats().ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"plan\":", "\"wall_ms\":", "\"result_nodes\":",
        "\"nodes_scanned\":", "\"plan_cache_hits\":", "\"steps\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
}

// perfbench, vpbnq --json and the vpbnd STATS verb parse this line, so the
// serialization is pinned byte for byte, every field set to a distinct
// value.
TEST(EngineTest, ExecStatsJsonIsByteStable) {
  ExecStats s;
  s.plan = "bulk";
  s.wall_ms = 1.5;
  s.ingest_ms = 0.25;
  s.snapshot_load = true;
  uint64_t v = 0;
  for (uint64_t* field :
       {&s.snapshot_bytes, &s.mapped_bytes, &s.result_nodes,
        &s.nodes_scanned, &s.join_pairs, &s.pbn_comparisons,
        &s.bytes_compared, &s.vjoin_pairs, &s.decoded_batches,
        &s.block_skips, &s.value_index_lookups, &s.value_index_postings,
        &s.value_scan_fallbacks, &s.zone_map_skips, &s.est_rows,
        &s.plan_cache_hits, &s.plan_cache_misses, &s.result_cache_hits,
        &s.result_cache_misses}) {
    *field = ++v;
  }
  s.steps.push_back({"child::a", 20, 0.125});
  s.steps.push_back({"q\"x", 21, 2});
  EXPECT_EQ(
      s.ToJson(),
      "{\"plan\":\"bulk\",\"wall_ms\":1.500000,\"ingest_ms\":0.250000,"
      "\"snapshot_load\":true,\"snapshot_bytes\":1,\"mapped_bytes\":2,"
      "\"result_nodes\":3,\"nodes_scanned\":4,\"join_pairs\":5,"
      "\"pbn_comparisons\":6,\"bytes_compared\":7,\"vjoin_pairs\":8,"
      "\"decoded_batches\":9,\"block_skips\":10,"
      "\"value_index_lookups\":11,\"value_index_postings\":12,"
      "\"value_scan_fallbacks\":13,\"zone_map_skips\":14,\"est_rows\":15,"
      "\"plan_cache_hits\":16,\"plan_cache_misses\":17,"
      "\"result_cache_hits\":18,\"result_cache_misses\":19,\"steps\":["
      "{\"label\":\"child::a\",\"nodes_out\":20,\"wall_ms\":0.125000},"
      "{\"label\":\"q\\\"x\",\"nodes_out\":21,\"wall_ms\":2.000000}]}");
}

// vpbnd runs requests for one document on several workers at once, each
// on its own thread, against shared engines. Four threads hammer one engine
// per plan (bulk, indexed, view) over a v2 snapshot loaded through LoadFile
// with mmap, so the arenas and the view's columns are first decoded under
// contention. The per-call overrides vary the inert threads field and
// collect_stats: neither may change an answer or touch shared state.
TEST(EngineTest, ConcurrentExecutesOnSharedEnginesMatchSequential) {
  workload::AuctionsOptions opts;
  opts.num_items = 20;
  opts.num_people = 15;
  opts.num_auctions = 40;
  const xml::Document doc = workload::GenerateAuctions(opts);
  const storage::StoredDocument built = storage::StoredDocument::Build(doc);
  const std::string path = ::testing::TempDir() + "/engine_concurrent.vpsn";
  ASSERT_TRUE(storage::Snapshot::WriteFile(built, path).ok());
  auto loaded = storage::Snapshot::LoadFile(path);  // mmap by default
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto stored =
      std::make_shared<const storage::StoredDocument>(std::move(*loaded));
  ASSERT_GT(stored->mapped_bytes(), 0u);
  const char* kSpec = "auction { itemref bidder { price } }";
  auto view = virt::VirtualDocument::OpenShared(stored, kSpec);
  ASSERT_TRUE(view.ok()) << view.status();

  // The reference answers come from a separate build of the same document,
  // so the shared substrates stay cold until the threads start.
  auto ref_stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(doc));
  auto ref_view = virt::VirtualDocument::OpenShared(ref_stored, kSpec);
  ASSERT_TRUE(ref_view.ok()) << ref_view.status();
  const QueryEngine ref_stored_engine(ref_stored);
  const QueryEngine ref_view_engine(*ref_view);

  const QueryEngine stored_engine(stored);
  const QueryEngine view_engine(*view);
  struct Case {
    const QueryEngine* engine;
    const QueryEngine* reference;
    const char* path;
    PlanKind plan;
  };
  const Case cases[] = {
      {&stored_engine, &ref_stored_engine,
       "//auction[bidder/price]//personref", PlanKind::kBulk},
      {&stored_engine, &ref_stored_engine, "//auction/bidder[1]/price",
       PlanKind::kIndexed},
      {&view_engine, &ref_view_engine, "//auction[itemref]/bidder/price",
       PlanKind::kVirtual},
  };
  std::vector<std::vector<std::string>> want;
  for (const Case& c : cases) {
    auto plan = c.reference->Prepare(c.path);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_EQ(plan->plan(), c.plan) << c.path;
    auto r = c.reference->Execute(*plan);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_GT(r->size(), 0u) << c.path;
    want.push_back(c.reference->StringValues(*r));
  }

  constexpr int kThreads = 4;
  constexpr int kCallsPerCase = 200;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerCase; ++i) {
        for (size_t k = 0; k < std::size(cases); ++k) {
          const Case& c = cases[(k + t) % std::size(cases)];
          ExecOverrides overrides;
          overrides.threads = 1 + (i + t) % 4;
          overrides.collect_stats = (i + t) % 2 == 0;
          auto r = c.engine->Execute(c.path, overrides);
          if (!r.ok() ||
              c.engine->StringValues(*r) != want[(k + t) % std::size(cases)]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vpbn::query
