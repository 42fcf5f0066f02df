/// \file random_equivalence_test.cc
/// \brief Differential property test at the *query* level: for random
/// documents, random vDataGuides and a battery of generated paths, the
/// virtual evaluator must select exactly the virtual nodes whose copies a
/// physical evaluation of the materialized transformation selects.
///
/// This generalizes eval_virtual_test's books-only equivalence to arbitrary
/// shapes (deep recursion, text sprinkled everywhere, all three level-array
/// cases occurring at random).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "query/engine.h"
#include "query/eval_nav.h"
#include "query/eval_virtual.h"
#include "storage/snapshot.h"
#include "vpbn/materializer.h"
#include "workload/random_trees.h"

namespace vpbn::query {
namespace {

/// Builds a battery of paths exercising the virtual type forest: child
/// chains, '//' jumps, parent/ancestor hops and text steps, derived from
/// the vDataGuide's own vpaths so most paths are non-empty.
std::vector<std::string> PathBattery(const vdg::VDataGuide& vg) {
  std::vector<std::string> out;
  for (vdg::VTypeId t = 0; t < vg.num_vtypes() && out.size() < 12; ++t) {
    if (vg.IsTextVType(t)) continue;
    const std::string& label = vg.label(t);
    out.push_back("//" + label);
    out.push_back("//" + label + "/*");
    out.push_back("//" + label + "/text()");
    if (vg.parent(t) != vdg::kNullVType) {
      out.push_back("//" + label + "/..");
      out.push_back("//" + label + "/ancestor::*");
    }
    out.push_back("//" + label + "/descendant::*");
    out.push_back("//" + label + "/following-sibling::*");
  }
  return out;
}

class RandomEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomEquivalenceTest, VirtualMatchesMaterialized) {
  uint64_t seed = GetParam();
  workload::RandomTreeOptions topts;
  topts.seed = seed;
  topts.num_nodes = 120;
  topts.num_labels = 5;
  topts.text_prob = 0.25;
  xml::Document doc = workload::GenerateRandomTree(topts);
  storage::StoredDocument stored = storage::StoredDocument::Build(doc);

  for (uint64_t spec_seed = 1; spec_seed <= 6; ++spec_seed) {
    workload::RandomSpecOptions sopts;
    sopts.seed = seed * 100 + spec_seed;
    sopts.num_types = 5;
    // The last two specs per document also exercise star expansion.
    sopts.star_prob = spec_seed >= 5 ? 0.4 : 0.0;
    std::string spec = workload::GenerateRandomSpec(stored.dataguide(), sopts);
    SCOPED_TRACE(spec);
    auto v = virt::VirtualDocument::Open(stored, spec);
    ASSERT_TRUE(v.ok()) << v.status();
    auto m = virt::Materialize(*v);
    ASSERT_TRUE(m.ok()) << m.status();

    auto key = [](const virt::VirtualNode& n) {
      return (static_cast<uint64_t>(n.node) << 32) | n.vtype;
    };
    // Detect duplication: a virtual node materialized more than once. Order
    // axes are exists-quantified and asymmetric under duplication (see
    // theorem1_property_test), so sibling paths are skipped then.
    std::set<uint64_t> all_keys;
    bool duplicated = false;
    for (const virt::VirtualNode& p : m->provenance) {
      if (!all_keys.insert(key(p)).second) duplicated = true;
    }
    for (const std::string& path : PathBattery(v->vguide())) {
      if (duplicated && path.find("sibling") != std::string::npos) continue;
      SCOPED_TRACE(path);
      auto virtual_result = EvalVirtual(*v, path);
      auto physical_result = EvalNav(m->doc, path);
      ASSERT_TRUE(virtual_result.ok()) << virtual_result.status();
      ASSERT_TRUE(physical_result.ok()) << physical_result.status();
      std::set<uint64_t> virtual_set;
      for (const virt::VirtualNode& n : *virtual_result) {
        virtual_set.insert(key(n));
      }
      std::set<uint64_t> physical_set;
      for (xml::NodeId id : *physical_result) {
        physical_set.insert(key(m->provenance[id]));
      }
      EXPECT_EQ(virtual_set, physical_set);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 13));

/// Determinism: the node lists (not just the node sets) with 1 and with N
/// threads must be identical — parallel execution is invisible in output.
class ParallelDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminismTest, ThreadsDoNotChangeResults) {
  uint64_t seed = GetParam();
  workload::RandomTreeOptions topts;
  topts.seed = seed;
  topts.num_nodes = 600;  // Large enough to cross the parallel cutoffs.
  topts.num_labels = 4;
  topts.text_prob = 0.25;
  auto doc = std::make_shared<const xml::Document>(
      workload::GenerateRandomTree(topts));
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(*doc));

  QueryEngine nav_engine(doc);
  QueryEngine stored_engine(stored);

  workload::RandomSpecOptions sopts;
  sopts.seed = seed * 37 + 1;
  sopts.num_types = 4;
  std::string spec = workload::GenerateRandomSpec(stored->dataguide(), sopts);
  SCOPED_TRACE(spec);
  auto v = virt::VirtualDocument::OpenShared(stored, spec);
  ASSERT_TRUE(v.ok()) << v.status();
  QueryEngine virtual_engine(*v);

  // Physical paths over labels the generator emits; virtual paths from the
  // vDataGuide battery. Every query runs on every applicable substrate.
  std::vector<std::string> physical = {
      "//e0",           "//e1/*",          "//e0//e1",
      "//e2/text()",    "//e0[e1]",        "//*[text()]",
      "//e1/..",        "//e0/descendant::*",
  };
  for (int threads : {2, 4}) {
    for (const std::string& path : physical) {
      for (const query::QueryEngine* engine : {&nav_engine, &stored_engine}) {
        SCOPED_TRACE(path);
        auto seq = engine->Execute(path, {.threads = 1});
        auto par = engine->Execute(path, {.threads = threads});
        ASSERT_TRUE(seq.ok()) << seq.status();
        ASSERT_TRUE(par.ok()) << par.status();
        EXPECT_TRUE(seq->nodes() == par->nodes()) << path;
      }
    }
    for (const std::string& path : PathBattery((*v)->vguide())) {
      SCOPED_TRACE(path);
      auto seq = virtual_engine.Execute(path, {.threads = 1});
      auto par = virtual_engine.Execute(path, {.threads = threads});
      ASSERT_TRUE(seq.ok()) << seq.status();
      ASSERT_TRUE(par.ok()) << par.status();
      EXPECT_TRUE(seq->nodes() == par->nodes()) << path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest,
                         ::testing::Range<uint64_t>(1, 7));

/// Stored results are the nav oracle's NodeIds in the oracle's order: the
/// stored document shares the DOM's ids, and both plans return document
/// order. GenerateRandomTree attaches children to earlier parents, so its
/// NodeIds are not in preorder, and an evaluator or merge that ordered
/// results by NodeId fails here. The battery reaches both stored plans:
/// bulk chains, `//*` (every element type, merged from per-type runs), and
/// order axes and positional predicates (the indexed plan).
class StoredMatchesNavTest : public ::testing::TestWithParam<uint64_t> {};

void ExpectStoredMatchesNav(
    const std::shared_ptr<const storage::StoredDocument>& stored) {
  // An aliasing pointer: the nav oracle walks the stored document's own
  // tree, whose NodeIds the stored results use.
  QueryEngine nav_engine(
      std::shared_ptr<const xml::Document>(stored, &stored->doc()));
  QueryEngine stored_engine(stored);
  const std::vector<std::string> paths = {
      "//e0",          "//e1/e2",          "//e0//e1",
      "//e2/text()",   "//e0[e1]/e2",      "//*",
      "//e1//*",       "//text()",         "/r0/*",
      "//e1/following::e2",                "//e0/preceding-sibling::*",
      "//e2/ancestor::*",                  "//e3/..",
      "//e1[2]",       "//e0/*[1]",        "//*[e2][1]//e3",
  };
  std::set<std::string> plans;
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto want = nav_engine.Execute(path);
    ASSERT_TRUE(want.ok()) << want.status();
    for (int threads : {1, 2, 8}) {
      auto got = stored_engine.Execute(
          path, {.threads = threads, .collect_stats = {}});
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(got->nodes() == want->nodes()) << "threads=" << threads;
      plans.insert(got->stats().plan);
    }
  }
  EXPECT_EQ(plans, (std::set<std::string>{"bulk", "indexed"}));
}

TEST_P(StoredMatchesNavTest, SameNodeIdsInDocumentOrder) {
  workload::RandomTreeOptions topts;
  topts.seed = GetParam();
  topts.num_nodes = 600;
  topts.num_labels = 4;
  topts.text_prob = 0.25;
  xml::Document doc = workload::GenerateRandomTree(topts);
  // The premise: NodeId order is not document order here.
  std::vector<xml::NodeId> order = doc.DocumentOrder();
  ASSERT_FALSE(std::is_sorted(order.begin(), order.end()));

  auto built = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(std::move(doc)));
  {
    SCOPED_TRACE("built");
    ExpectStoredMatchesNav(built);
  }
  auto loaded = storage::Snapshot::Load(
      storage::Snapshot::Write(*built, /*version=*/2));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  SCOPED_TRACE("v2 snapshot");
  ExpectStoredMatchesNav(
      std::make_shared<const storage::StoredDocument>(std::move(*loaded)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoredMatchesNavTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace vpbn::query
