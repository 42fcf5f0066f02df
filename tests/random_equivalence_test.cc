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
#include <string>
#include <thread>
#include <vector>

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
/// the vDataGuide's own vpaths so most paths are non-empty. With \p texts
/// (the document's own text values), it adds value predicates for up to
/// four element vtypes L with an element child vtype C: equality,
/// inequality and the mirrored operand order on C, on C/text() and on
/// L's own text, each against a value tK drawn from \p texts, and
/// [C > 3], which no tN text satisfies (the empty-witness path).
std::vector<std::string> PathBattery(const vdg::VDataGuide& vg,
                                     const std::vector<std::string>& texts =
                                         {}) {
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
  size_t predicated = 0;
  for (vdg::VTypeId t = 0;
       t < vg.num_vtypes() && !texts.empty() && predicated < 4; ++t) {
    if (vg.IsTextVType(t)) continue;
    auto child = std::find_if(
        vg.children(t).begin(), vg.children(t).end(),
        [&](vdg::VTypeId c) { return !vg.IsTextVType(c); });
    if (child == vg.children(t).end()) continue;
    const std::string l = "//" + vg.label(t);
    const std::string& c = vg.label(*child);
    const std::string tk = "\"" + texts[(t * 7 + 3) % texts.size()] + "\"";
    out.push_back(l + "[" + c + " = " + tk + "]");
    out.push_back(l + "[" + c + " != " + tk + "]");
    out.push_back(l + "[" + tk + " = " + c + "]");
    out.push_back(l + "[" + c + "/text() = " + tk + "]");
    out.push_back(l + "[text() = " + tk + "]");
    out.push_back(l + "[" + c + " > 3]");
    ++predicated;
  }
  return out;
}

/// The distinct text values of \p doc, sorted.
std::vector<std::string> TextValues(const xml::Document& doc) {
  std::set<std::string> values;
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    if (doc.IsText(id)) values.insert(doc.text(id));
  }
  return {values.begin(), values.end()};
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
  const std::vector<std::string> texts = TextValues(doc);

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
    for (const std::string& path : PathBattery(v->vguide(), texts)) {
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

/// Determinism under concurrent callers: threads executing the battery at
/// once on shared engines get exactly the node lists (not just the node
/// sets) of one sequential pass. Each query runs on its caller's thread, as
/// in vpbnd's workers. The concurrent pass runs on a v2 snapshot of the
/// stored document and on a view opened over it, both untouched until the
/// threads start, so the threads race the lazy arena decode, the view's
/// decoded columns and reachability bitmaps, and the plan caches.
class ParallelDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminismTest, ThreadsDoNotChangeResults) {
  uint64_t seed = GetParam();
  workload::RandomTreeOptions topts;
  topts.seed = seed;
  topts.num_nodes = 600;
  topts.num_labels = 4;
  topts.text_prob = 0.25;
  auto doc = std::make_shared<const xml::Document>(
      workload::GenerateRandomTree(topts));
  auto stored = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(*doc));

  workload::RandomSpecOptions sopts;
  sopts.seed = seed * 37 + 1;
  sopts.num_types = 4;
  std::string spec = workload::GenerateRandomSpec(stored->dataguide(), sopts);
  SCOPED_TRACE(spec);
  auto v = virt::VirtualDocument::OpenShared(stored, spec);
  ASSERT_TRUE(v.ok()) << v.status();

  auto loaded = storage::Snapshot::Load(
      storage::Snapshot::Write(*stored));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto cold = std::make_shared<const storage::StoredDocument>(
      std::move(*loaded));
  auto cold_view = virt::VirtualDocument::OpenShared(cold, spec);
  ASSERT_TRUE(cold_view.ok()) << cold_view.status();

  QueryEngine nav_engine(doc);
  QueryEngine stored_engine(stored);
  QueryEngine virtual_engine(*v);
  QueryEngine cold_stored_engine(cold);
  QueryEngine cold_virtual_engine(*cold_view);

  // Physical paths over labels the generator emits; virtual paths from the
  // vDataGuide battery. Every query runs on every applicable substrate.
  struct Job {
    const QueryEngine* reference;
    const QueryEngine* concurrent;
    std::string path;
  };
  std::vector<Job> jobs;
  for (const char* path :
       {"//e0", "//e1/*", "//e0//e1", "//e2/text()", "//e0[e1]",
        "//*[text()]", "//e1/..", "//e0/descendant::*",
        "//e2/ancestor::e1", "//e1[not(e2) or e0/e3]/.."}) {
    jobs.push_back({&nav_engine, &nav_engine, path});
    jobs.push_back({&stored_engine, &cold_stored_engine, path});
  }
  for (const std::string& path :
       PathBattery((*v)->vguide(), TextValues(*doc))) {
    jobs.push_back({&virtual_engine, &cold_virtual_engine, path});
  }

  std::vector<QueryResult::NodeList> want;
  for (const Job& job : jobs) {
    auto r = job.reference->Execute(job.path);
    ASSERT_TRUE(r.ok()) << job.path << ": " << r.status();
    want.push_back(r->nodes());
  }

  // Each thread walks the whole battery from its own starting offset, so
  // first touches of the lazy state land on different threads.
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::string>> failures(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < jobs.size(); ++i) {
        const size_t j = (i + t * jobs.size() / kThreads) % jobs.size();
        auto r = jobs[j].concurrent->Execute(jobs[j].path);
        if (!r.ok() || !(r->nodes() == want[j])) {
          failures[t].push_back(jobs[j].path);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::vector<std::string>& f : failures) {
    EXPECT_TRUE(f.empty()) << f.size() << " differing answers, first "
                           << f.front();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest,
                         ::testing::Range<uint64_t>(1, 7));

/// Stored results are the nav oracle's NodeIds in the oracle's order: the
/// stored document shares the DOM's ids, and both plans return document
/// order. GenerateRandomTree attaches children to earlier parents, so its
/// NodeIds are not in preorder, and an evaluator or merge that ordered
/// results by NodeId fails here. The battery reaches both stored plans:
/// bulk chains, reverse axes, attribute and boolean predicates, `//*`
/// (every element type, merged from per-type runs), and order and sibling
/// axes and positional predicates (the indexed plan).
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
      "//e1/following-sibling::e1",        "//e0/following-sibling::*[1]",
      "//*/following-sibling::node()",     "//e2/preceding-sibling::e2[1]",
      "//e2/ancestor::*",                  "//e3/..",
      "//e1[2]",       "//e0/*[1]",        "//*[e2][1]//e3",
      // Reverse axes, attribute existence and boolean predicates (bulk).
      "//e1/..",       "/r0/..",           "//e2/text()/..",
      "//e2/ancestor::e0",                 "//e3/ancestor-or-self::*",
      "//e1//..",      "//text()/ancestor::*[e1]/e2",
      "//e0[@a]",      "//*[@a]/e1",       "//e1[@a = \"v1\"]/..",
      "//e0[e1 and not(@a)]",              "//e1[e2 or @a]",
      "//*[not(e0) and text()]",
      "//e0[not(e1 = \"t3\") or @a = \"v2\"]/ancestor::e1",
      "//e2[text() = \"t7\" and not(e3/e1)]",
      "//descendant::r0",  // '//' keeps the document node: the root too
  };
  std::set<std::string> plans;
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    auto want = nav_engine.Execute(path);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = stored_engine.Execute(path);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->nodes() == want->nodes());
    plans.insert(got->stats().plan);
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
  // Attributes for the [@a] paths: empty on some elements (present but
  // false as a predicate), v0..v2 on others, absent on the rest.
  for (xml::NodeId id = 0; id < doc.num_nodes(); ++id) {
    if (!doc.IsElement(id) || id % 4 == 3) continue;
    doc.AddAttribute(id, "a", id % 4 == 0 ? "" : "v" + std::to_string(id % 3));
  }

  auto built = std::make_shared<const storage::StoredDocument>(
      storage::StoredDocument::Build(std::move(doc)));
  {
    SCOPED_TRACE("built");
    ExpectStoredMatchesNav(built);
  }
  auto loaded = storage::Snapshot::Load(
      storage::Snapshot::Write(*built));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  SCOPED_TRACE("v2 snapshot");
  ExpectStoredMatchesNav(
      std::make_shared<const storage::StoredDocument>(std::move(*loaded)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoredMatchesNavTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace vpbn::query
