/// \file engine_test.cc
/// \brief QueryEngine facade: planning per substrate, prepare-once/execute-
/// many, default options + per-request overrides, epoch/provenance stamps,
/// typed results and StringValues.

#include "query/engine.h"

#include <memory>

#include <gtest/gtest.h>

#include "pbn/numbering.h"
#include "tests/test_util.h"
#include "vpbn/virtual_document.h"

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

  // Bulk fragment: child/descendant steps with existential predicates.
  auto p_bulk = idx.Prepare("//book[author/name]/title");
  ASSERT_TRUE(p_bulk.ok());
  EXPECT_EQ(p_bulk->plan(), PlanKind::kBulk);

  // Positional predicates fall out of the bulk fragment.
  auto p_idx = idx.Prepare("/data/book[2]/title");
  ASSERT_TRUE(p_idx.ok());
  EXPECT_EQ(p_idx->plan(), PlanKind::kIndexed);

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
  auto r1 = engine.Execute(*prepared, {.threads = 1});
  auto r2 = engine.Execute(*prepared, {.threads = 4});
  auto r3 = engine.Execute(*prepared, {.threads = 0});  // hw concurrency
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r1->node_ids(), r2->node_ids());
  EXPECT_EQ(r1->node_ids(), r3->node_ids());
  EXPECT_EQ(r2->stats().threads, 4);
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
  auto r2 = engine.Execute(*p2, {.threads = 2});
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

  engine.SetDefaultOptions({.threads = 3, .collect_stats = true});
  EXPECT_EQ(engine.default_options().threads, 3);

  // No overrides: the defaults verbatim.
  ExecOptions eff = engine.EffectiveOptions({});
  EXPECT_EQ(eff.threads, 3);
  EXPECT_TRUE(eff.collect_stats);

  // Each set override replaces its default; unset fields fall through.
  eff = engine.EffectiveOptions({.threads = 1});
  EXPECT_EQ(eff.threads, 1);
  EXPECT_TRUE(eff.collect_stats);  // inherited
  eff = engine.EffectiveOptions({.collect_stats = false});
  EXPECT_EQ(eff.threads, 3);  // inherited
  EXPECT_FALSE(eff.collect_stats);

  // Execute actually runs with the merge: defaults say collect_stats.
  auto r = engine.Execute("/data/book[2]/title", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats().threads, 3);
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
       {"\"plan\":", "\"threads\":", "\"wall_ms\":", "\"result_nodes\":",
        "\"nodes_scanned\":", "\"plan_cache_hits\":", "\"steps\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
}

}  // namespace
}  // namespace vpbn::query
