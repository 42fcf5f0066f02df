/// \file bench_e10_packed_hotpath.cc
/// \brief E10: packed columnar PBN hot paths vs the vector substrate —
/// comparison throughput, structural-join throughput, and per-node space
/// (the E5 extension), on the XMark-style auctions workload.
///
/// The packed and vector stack-tree joins run the *same* algorithm over the
/// same sorted lists, so they make the same number of axis decisions; the
/// packed JoinCounters therefore price both sides, and the
/// comparison-throughput ratio equals the wall-clock ratio. Emits the table
/// to stdout and a JSON record (default BENCH_e10.json, override with the
/// second argument).
///
///   $ ./bench_e10_packed_hotpath [num_auctions] [out.json]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "pbn/packed.h"
#include "pbn/structural_join.h"
#include "storage/stored_document.h"
#include "workload/auctions.h"

int main(int argc, char** argv) {
  using namespace vpbn;
  using bench::Fmt;
  using num::JoinCounters;
  using num::JoinPair;
  using num::PackedPbnList;
  using num::Pbn;

  workload::AuctionsOptions opts;
  opts.num_items = 400;
  opts.num_people = 300;
  opts.num_auctions = argc > 1 ? std::atoi(argv[1]) : 4000;
  const char* out_path = argc > 2 ? argv[2] : "BENCH_e10.json";

  storage::StoredDocument stored =
      storage::StoredDocument::Build(workload::GenerateAuctions(opts));
  const dg::DataGuide& g = stored.dataguide();

  auto auction = g.FindByPath("site.open_auctions.auction").value();
  auto bidder = g.FindByPath("site.open_auctions.auction.bidder").value();
  auto personref =
      g.FindByPath("site.open_auctions.auction.bidder.personref").value();

  // The heap baseline lists, materialized from the packed arenas up front
  // so materialization never lands inside a timed region.
  const std::vector<Pbn> v_auction =
      stored.PackedNodesOfType(auction).MaterializeAll();
  const std::vector<Pbn> v_bidder =
      stored.PackedNodesOfType(bidder).MaterializeAll();
  const std::vector<Pbn> v_personref =
      stored.PackedNodesOfType(personref).MaterializeAll();
  const PackedPbnList& p_auction = stored.PackedNodesOfType(auction);
  const PackedPbnList& p_bidder = stored.PackedNodesOfType(bidder);
  const PackedPbnList& p_personref = stored.PackedNodesOfType(personref);

  std::printf(
      "E10 — packed columnar hot paths (auctions, %zu nodes; "
      "|auction|=%zu |bidder|=%zu |personref|=%zu)\n\n",
      static_cast<size_t>(stored.doc().num_nodes()), v_auction.size(), v_bidder.size(),
      v_personref.size());

  constexpr int kReps = 15;
  size_t sink = 0;  // defeat dead-code elimination

  // --- Ancestor-descendant join: auction ⊐ personref -----------------
  JoinCounters ad_counters;
  std::vector<JoinPair> ad_pairs =
      num::AncestorDescendantJoin(p_auction, p_personref, nullptr,
                                  &ad_counters);
  double ad_vector_ms = bench::MedianMs(kReps, [&] {
    sink += num::AncestorDescendantJoin(v_auction, v_personref).size();
  });
  double ad_packed_ms = bench::MedianMs(kReps, [&] {
    sink += num::AncestorDescendantJoin(p_auction, p_personref, nullptr,
                                        nullptr)
                .size();
  });

  // --- Comparison-bound A-D join: bidder ⊐ bidder ----------------------
  // Bidders are siblings/cousins, never nested, so this ancestor-descendant
  // self-join emits zero pairs while every merge step still makes real
  // order and prefix decisions over fully interleaved lists. Its wall clock
  // is pure comparison work — the cleanest read on per-comparison cost,
  // with no output materialization masking it (auction//personref above
  // emits one pair per descendant, so pair buffering prices both variants
  // equally there).
  JoinCounters sel_counters;
  std::vector<JoinPair> sel_pairs =
      num::AncestorDescendantJoin(p_bidder, p_bidder, nullptr, &sel_counters);
  double sel_vector_ms = bench::MedianMs(kReps, [&] {
    sink += num::AncestorDescendantJoin(v_bidder, v_bidder).size();
  });
  double sel_packed_ms = bench::MedianMs(kReps, [&] {
    sink +=
        num::AncestorDescendantJoin(p_bidder, p_bidder, nullptr, nullptr)
            .size();
  });

  // --- Comparison throughput: the A-D join's decision kernel -----------
  // The stack-tree merge makes two kinds of decisions: document-order
  // comparisons and strict-prefix (is-ancestor) tests. This kernel replays
  // exactly those decisions over the A-D join's operand lists — every
  // personref probed against a 64-ancestor window of auctions — so the
  // per-decision cost is measured with the merge's control flow and pair
  // buffering stripped away. The packed side runs from the same columnar
  // arrays the packed join reads (keys decide; the arena is touched only
  // past equal keys).
  constexpr size_t kWindow = 64;
  const size_t n_desc = v_personref.size();
  const size_t n_anc = v_auction.size();
  const uint64_t kernel_decisions =
      static_cast<uint64_t>(n_desc) * kWindow * 2;
  double kern_vector_ms = bench::MedianMs(kReps, [&] {
    size_t hits = 0;
    for (size_t i = 0; i < n_desc; ++i) {
      const Pbn& dn = v_personref[i];
      size_t base = (i * 2654435761u) % n_anc;
      for (size_t j = 0; j < kWindow; ++j) {
        size_t x = base + j;
        if (x >= n_anc) x -= n_anc;
        const Pbn& an = v_auction[x];
        hits += an.IsStrictPrefixOf(dn);
        hits += (an <=> dn) == std::strong_ordering::less;
      }
    }
    sink += hits;
  });
  double kern_packed_ms = bench::MedianMs(kReps, [&] {
    size_t hits = 0;
    const uint64_t* a_key = p_auction.keys_data();
    const uint32_t* a_off = p_auction.offsets_data();
    const char* a_arena = p_auction.arena_data();
    const uint64_t* d_key = p_personref.keys_data();
    const uint32_t* d_off = p_personref.offsets_data();
    const char* d_arena = p_personref.arena_data();
    for (size_t i = 0; i < n_desc; ++i) {
      const uint64_t dkey = d_key[i];
      const uint32_t ds = d_off[i + 1] - d_off[i];
      const char* dp = d_arena + d_off[i];
      size_t base = (i * 2654435761u) % n_anc;
      for (size_t j = 0; j < kWindow; ++j) {
        size_t x = base + j;
        if (x >= n_anc) x -= n_anc;
        const uint64_t akey = a_key[x];
        const uint32_t as = a_off[x + 1] - a_off[x];
        const uint32_t k = as - 1;
        bool prefix;
        if (k <= 8) {
          uint64_t mask = k == 8 ? ~0ull : ~(~0ull >> (8 * k));
          prefix = as < ds && ((akey ^ dkey) & mask) == 0;
        } else {
          prefix = as < ds && akey == dkey &&
                   std::memcmp(a_arena + a_off[x] + 8, dp + 8, k - 8) == 0;
        }
        hits += prefix;
        bool less;
        if (akey != dkey) {
          less = akey < dkey;
        } else if (as <= 8 || ds <= 8) {
          less = false;  // equal keys with a short side => equal numbers
        } else {
          uint32_t t = (as < ds ? as : ds) - 8;
          int r = std::memcmp(a_arena + a_off[x] + 8, dp + 8, t);
          less = r != 0 ? r < 0 : as < ds;
        }
        hits += less;
      }
    }
    sink += hits;
  });
  // The batched kernel makes the same decisions per probe over the same
  // window, but as one CompareKeysBatch call per run (SIMD over the key
  // column, scalar tie-break only on equal keys). A window that wraps the
  // ancestor list splits into two runs.
  double kern_batch_ms = bench::MedianMs(kReps, [&] {
    size_t hits = 0;
    const uint64_t* a_key = p_auction.keys_data();
    const uint32_t* a_off = p_auction.offsets_data();
    const char* a_arena = p_auction.arena_data();
    for (size_t i = 0; i < n_desc; ++i) {
      const num::PackedPbnRef probe = p_personref[i];
      size_t base = (i * 2654435761u) % n_anc;
      size_t first = kWindow < n_anc - base ? kWindow : n_anc - base;
      num::BatchCounts bc =
          num::CompareKeysBatch(a_key, a_off, a_arena, base, first, probe);
      if (first < kWindow) {
        num::BatchCounts tail = num::CompareKeysBatch(
            a_key, a_off, a_arena, 0, kWindow - first, probe);
        bc.less += tail.less;
        bc.prefix += tail.prefix;
      }
      hits += bc.less + bc.prefix;
    }
    sink += hits;
  });

  // --- Parent-child join: bidder -> personref -------------------------
  JoinCounters pc_counters;
  std::vector<JoinPair> pc_pairs =
      num::ParentChildJoin(p_bidder, p_personref, nullptr, &pc_counters);
  double pc_vector_ms = bench::MedianMs(kReps, [&] {
    sink += num::ParentChildJoin(v_bidder, v_personref).size();
  });
  double pc_packed_ms = bench::MedianMs(kReps, [&] {
    sink += num::ParentChildJoin(p_bidder, p_personref, nullptr, nullptr)
                .size();
  });

  // --- Parallel ancestor-descendant join ------------------------------
  common::ThreadPool pool(4);
  double ad_vector_par_ms = bench::MedianMs(kReps, [&] {
    sink += num::AncestorDescendantJoin(v_auction, v_personref, &pool).size();
  });
  double ad_packed_par_ms = bench::MedianMs(kReps, [&] {
    sink +=
        num::AncestorDescendantJoin(p_auction, p_personref, &pool, nullptr)
            .size();
  });

  // Both kernel variants make the same kernel_decisions decisions, so the
  // throughput ratio is exactly the inverse time ratio.
  double vec_cmp_per_s =
      static_cast<double>(kernel_decisions) / (kern_vector_ms / 1000.0);
  double pk_cmp_per_s =
      static_cast<double>(kernel_decisions) / (kern_packed_ms / 1000.0);
  double cmp_speedup = vec_cmp_per_s > 0 ? pk_cmp_per_s / vec_cmp_per_s : 0;
  double batch_cmp_per_s =
      static_cast<double>(kernel_decisions) / (kern_batch_ms / 1000.0);
  double batch_vs_vector =
      vec_cmp_per_s > 0 ? batch_cmp_per_s / vec_cmp_per_s : 0;
  double batch_vs_scalar =
      pk_cmp_per_s > 0 ? batch_cmp_per_s / pk_cmp_per_s : 0;

  bench::Table join_table({"join", "variant", "ms", "pairs", "Mcmp/s"});
  auto mcmps = [](uint64_t cmp, double ms) {
    return ms > 0 ? static_cast<double>(cmp) / ms / 1000.0 : 0.0;
  };
  join_table.AddRow({"auction//personref", "vector", Fmt(ad_vector_ms),
                     std::to_string(ad_pairs.size()),
                     Fmt(mcmps(ad_counters.comparisons, ad_vector_ms), 1)});
  join_table.AddRow({"auction//personref", "packed", Fmt(ad_packed_ms),
                     std::to_string(ad_pairs.size()),
                     Fmt(mcmps(ad_counters.comparisons, ad_packed_ms), 1)});
  join_table.AddRow({"auction//personref", "vector(4T)",
                     Fmt(ad_vector_par_ms), std::to_string(ad_pairs.size()),
                     Fmt(mcmps(ad_counters.comparisons, ad_vector_par_ms), 1)});
  join_table.AddRow({"auction//personref", "packed(4T)",
                     Fmt(ad_packed_par_ms), std::to_string(ad_pairs.size()),
                     Fmt(mcmps(ad_counters.comparisons, ad_packed_par_ms), 1)});
  join_table.AddRow({"bidder//bidder(0)", "vector", Fmt(sel_vector_ms),
                     std::to_string(sel_pairs.size()),
                     Fmt(mcmps(sel_counters.comparisons, sel_vector_ms), 1)});
  join_table.AddRow({"bidder//bidder(0)", "packed", Fmt(sel_packed_ms),
                     std::to_string(sel_pairs.size()),
                     Fmt(mcmps(sel_counters.comparisons, sel_packed_ms), 1)});
  join_table.AddRow({"bidder/personref", "vector", Fmt(pc_vector_ms),
                     std::to_string(pc_pairs.size()),
                     Fmt(mcmps(pc_counters.comparisons, pc_vector_ms), 1)});
  join_table.AddRow({"bidder/personref", "packed", Fmt(pc_packed_ms),
                     std::to_string(pc_pairs.size()),
                     Fmt(mcmps(pc_counters.comparisons, pc_packed_ms), 1)});
  join_table.Print();
  std::printf("\nA-D decision kernel (%llu decisions): vector %.2f ms, "
              "packed %.2f ms\n",
              static_cast<unsigned long long>(kernel_decisions),
              kern_vector_ms, kern_packed_ms);
  std::printf("A-D comparison throughput: vector %.1f Mcmp/s, packed %.1f "
              "Mcmp/s => %.2fx\n",
              vec_cmp_per_s / 1e6, pk_cmp_per_s / 1e6, cmp_speedup);
  std::printf("A-D batched kernel (%s): %.2f ms, %.1f Mcmp/s => %.2fx vs "
              "vector, %.2fx vs scalar packed\n",
              num::BatchKernelIsa(), kern_batch_ms, batch_cmp_per_s / 1e6,
              batch_vs_vector, batch_vs_scalar);

  // --- Space per node (E5 extension) ----------------------------------
  size_t n_nodes = 0, vector_bytes = 0, packed_bytes = 0, arena_bytes = 0;
  for (dg::TypeId t = 0; t < g.num_types(); ++t) {
    const PackedPbnList& p = stored.PackedNodesOfType(t);
    const std::vector<Pbn> v = p.MaterializeAll();
    n_nodes += v.size();
    vector_bytes += v.capacity() * sizeof(Pbn);
    for (const Pbn& pbn : v) vector_bytes += pbn.HeapMemoryUsage();
    packed_bytes += p.MemoryUsage();
    arena_bytes += p.arena_bytes();
  }
  double vec_per_node = n_nodes ? double(vector_bytes) / n_nodes : 0;
  double pk_per_node = n_nodes ? double(packed_bytes) / n_nodes : 0;
  double arena_per_node = n_nodes ? double(arena_bytes) / n_nodes : 0;
  std::printf("\ntype-index space: vector %.1f B/node, packed %.1f B/node "
              "(arena %.1f B/node) => %.2fx smaller\n",
              vec_per_node, pk_per_node, arena_per_node,
              pk_per_node > 0 ? vec_per_node / pk_per_node : 0);

  // --- JSON record -----------------------------------------------------
  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"experiment\": \"e10_packed_hotpath\",\n"
               "  \"workload\": {\"generator\": \"auctions\", \"nodes\": %zu, "
               "\"auctions\": %d, \"ancestors\": %zu, \"descendants\": %zu},\n",
               static_cast<size_t>(stored.doc().num_nodes()), opts.num_auctions,
               v_auction.size(), v_personref.size());
  std::fprintf(out,
               "  \"ad_join\": {\"vector_ms\": %.4f, \"packed_ms\": %.4f, "
               "\"speedup\": %.3f, \"pairs\": %zu, \"comparisons\": %llu, "
               "\"bytes_compared\": %llu},\n",
               ad_vector_ms, ad_packed_ms,
               ad_packed_ms > 0 ? ad_vector_ms / ad_packed_ms : 0,
               ad_pairs.size(),
               static_cast<unsigned long long>(ad_counters.comparisons),
               static_cast<unsigned long long>(ad_counters.bytes_compared));
  std::fprintf(out,
               "  \"ad_join_block_skips\": %llu,\n",
               static_cast<unsigned long long>(ad_counters.block_skips));
  std::fprintf(out,
               "  \"ad_join_comparison_bound\": {\"vector_ms\": %.4f, "
               "\"packed_ms\": %.4f, \"speedup\": %.3f, \"pairs\": %zu, "
               "\"comparisons\": %llu},\n",
               sel_vector_ms, sel_packed_ms,
               sel_packed_ms > 0 ? sel_vector_ms / sel_packed_ms : 0,
               sel_pairs.size(),
               static_cast<unsigned long long>(sel_counters.comparisons));
  std::fprintf(out,
               "  \"pc_join\": {\"vector_ms\": %.4f, \"packed_ms\": %.4f, "
               "\"speedup\": %.3f, \"pairs\": %zu, \"comparisons\": %llu},\n",
               pc_vector_ms, pc_packed_ms,
               pc_packed_ms > 0 ? pc_vector_ms / pc_packed_ms : 0,
               pc_pairs.size(),
               static_cast<unsigned long long>(pc_counters.comparisons));
  std::fprintf(out,
               "  \"ad_join_parallel\": {\"threads\": 4, \"vector_ms\": %.4f, "
               "\"packed_ms\": %.4f, \"speedup\": %.3f},\n",
               ad_vector_par_ms, ad_packed_par_ms,
               ad_packed_par_ms > 0 ? ad_vector_par_ms / ad_packed_par_ms : 0);
  std::fprintf(out,
               "  \"comparison_throughput\": {\"decisions\": %llu, "
               "\"vector_ms\": %.4f, \"packed_ms\": %.4f, "
               "\"vector_cmp_per_s\": %.0f, \"packed_cmp_per_s\": %.0f, "
               "\"speedup\": %.3f},\n",
               static_cast<unsigned long long>(kernel_decisions),
               kern_vector_ms, kern_packed_ms, vec_cmp_per_s, pk_cmp_per_s,
               cmp_speedup);
  std::fprintf(out,
               "  \"comparison_throughput_batched\": {\"isa\": \"%s\", "
               "\"batched_ms\": %.4f, \"batched_cmp_per_s\": %.0f, "
               "\"speedup_vs_vector\": %.3f, "
               "\"speedup_vs_scalar_packed\": %.3f},\n",
               num::BatchKernelIsa(), kern_batch_ms, batch_cmp_per_s,
               batch_vs_vector, batch_vs_scalar);
  std::fprintf(out,
               "  \"space\": {\"nodes\": %zu, \"vector_bytes_per_node\": "
               "%.2f, \"packed_bytes_per_node\": %.2f, "
               "\"arena_bytes_per_node\": %.2f},\n",
               n_nodes, vec_per_node, pk_per_node, arena_per_node);
  std::fprintf(out, "  \"sink\": %zu\n}\n", sink % 2);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
