/// \file virtual_document.h
/// \brief A document viewed through a vDataGuide — the object the paper's
/// virtualDoc() XQuery function denotes (§2).
///
/// No data moves: a *virtual node* is the pair (original node, virtual
/// type), and navigation is computed from the original document's indexes:
///
///   * a virtual child whose original type is an original *descendant* type
///     is found by a containment scan of the type index within the node's
///     subtree (Case 1);
///   * one whose original type is an original *ancestor* type is the unique
///     ancestor at that depth, read off the node's own PBN prefix (Case 2);
///   * one related through a least common ancestor type is found by a
///     containment scan under the node's ancestor instance at the LCA's
///     depth (Case 3) — "authors are related to the title through a (least
///     common) ancestor".
///
/// Only data the query actually touches is ever enumerated, which is the
/// paper's core efficiency argument (§4.3).

#pragma once

#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "index/value_index.h"
#include "storage/stored_document.h"
#include "vdg/vdataguide.h"
#include "vpbn/vpbn.h"

namespace vpbn::virt {

/// \brief A node of the virtual hierarchy.
struct VirtualNode {
  xml::NodeId node = xml::kNullNode;
  vdg::VTypeId vtype = vdg::kNullVType;

  bool operator==(const VirtualNode&) const = default;
};

/// \brief A stored document re-hierarchized by a vDataGuide.
class VirtualDocument {
 public:
  /// An empty view; unusable until move-assigned from Open().
  VirtualDocument() = default;

  /// Movable (the cache mutexes are not moved — a moved document starts
  /// with fresh locks). Moving while other threads query is undefined, as
  /// usual.
  VirtualDocument(VirtualDocument&& other) noexcept;
  VirtualDocument& operator=(VirtualDocument&& other) noexcept;

  /// Expands \p spec_text against \p stored's DataGuide and builds the
  /// vPBN space (level arrays). \p stored must outlive the result.
  static Result<VirtualDocument> Open(const storage::StoredDocument& stored,
                                      std::string_view spec_text);

  /// Shared-ownership Open: the returned VirtualDocument co-owns \p stored
  /// (the control block holds both), so there is no outlive-the-view burden
  /// — exactly what a catalog that hot-swaps documents under queries needs.
  static Result<std::shared_ptr<const VirtualDocument>> OpenShared(
      std::shared_ptr<const storage::StoredDocument> stored,
      std::string_view spec_text);

  const storage::StoredDocument& stored() const { return *stored_; }
  const vdg::VDataGuide& vguide() const { return *vguide_; }
  const VpbnSpace& space() const { return space_; }

  /// The vPBN number of a virtual node: its original number, decoded from
  /// its row of the type's packed arena into \p buf (reused across calls;
  /// it must outlive the view), plus (via the space) its type's level
  /// array.
  VpbnView VpbnOf(const VirtualNode& v, std::vector<uint32_t>* buf) const {
    return DecodeView(stored_->NumberOf(v.node), v.vtype, buf);
  }

  /// Display name of a virtual node (element name, or "" for text).
  const std::string& name(const VirtualNode& v) const {
    return stored_->doc().name(v.node);
  }

  /// Text content for virtual text nodes.
  const std::string& text(const VirtualNode& v) const {
    return stored_->doc().text(v.node);
  }

  bool IsText(const VirtualNode& v) const {
    return stored_->doc().IsText(v.node);
  }

  /// \name Virtual navigation
  /// @{

  /// Roots of the virtual hierarchy, in virtual document order.
  std::vector<VirtualNode> Roots() const;

  /// All instances of one virtual type, in original document order.
  std::vector<VirtualNode> NodesOfVType(vdg::VTypeId t) const;

  /// Children of \p v in virtual document order.
  std::vector<VirtualNode> Children(const VirtualNode& v) const;

  /// Virtual parents of \p v (plural under duplication; empty for roots),
  /// in virtual document order.
  std::vector<VirtualNode> Parents(const VirtualNode& v) const;

  /// Nodes on \p axis relative to context \p v, in virtual document order.
  /// kAttribute yields nothing (attributes are element properties here).
  std::vector<VirtualNode> AxisNodes(const VirtualNode& v,
                                     num::Axis axis) const;
  /// @}

  /// String value of a virtual node: concatenated text of its virtual
  /// subtree, in virtual document order. Intact subtrees (whose virtual
  /// structure equals the original) are served by a physical subtree walk.
  std::string StringValue(const VirtualNode& v) const;

  /// True iff the virtual subtree of type \p t mirrors its original
  /// subtree (same types, same order, nothing added or removed). Values of
  /// such subtrees can be served physically (§6's optimization).
  bool IsIntactVType(vdg::VTypeId t) const { return intact_[t]; }

  /// The dictionary-encoded value column of vtype \p t, or nullptr when
  /// the vtype is not covered (its virtual string-value is not flat: some
  /// vguide child is an element vtype). Rows align index-for-index with
  /// NodeIdsOfType of the original type — stored().RowOfNode(v.node) is a
  /// node's row. Intact vtypes serve the stored index's column directly
  /// (their virtual string-values equal the original ones); other covered
  /// vtypes get an assembled-value column built lazily over every instance
  /// of the original type, memoized for the life of the document.
  /// Thread-safe.
  const idx::TypeColumn* ValueColumn(vdg::VTypeId t) const;

  /// \name Reachability
  ///
  /// A virtual node is *in* the virtual document only if a chain of virtual
  /// parents connects it to a root instance. The numbers alone cannot
  /// witness a missing intermediate instance (an orphaned author has a
  /// valid vPBN but no place in the document), so the query layer filters
  /// by reachability where it is not structurally guaranteed.
  /// @{

  /// True iff every instance of \p t is guaranteed reachable: each edge on
  /// its vtype path to the root places the parent's original type as an
  /// ancestor-or-self of the child's original type, so the parent instance
  /// is a prefix of the child's number and always exists.
  bool IsGuaranteedReachable(vdg::VTypeId t) const { return guaranteed_[t]; }

  /// True iff \p v has a virtual-parent chain to a root. Served from the
  /// per-vtype reachability bitmap (built lazily, memoized for the life of
  /// the document). Safe for concurrent calls: the bitmap store
  /// synchronizes internally, and a build runs lock-free on immutable
  /// state (two threads may race to build the same bitmap; both compute
  /// the same bits and the first store wins).
  bool IsReachable(const VirtualNode& v) const;

  /// Reachability of the \p index -th instance of vtype \p t (aligned with
  /// NodeIdsOfType of the original type) — the O(1) entry point for the
  /// merge joins, which hold candidate indexes rather than node ids.
  bool IsReachableAt(vdg::VTypeId t, size_t index) const {
    if (guaranteed_[t]) return true;
    return (*ReachableBitmap(t))[index] != 0;
  }

  /// The memoized per-vtype bitmap, aligned with NodeIdsOfType of the
  /// original type; nullptr when IsGuaranteedReachable(t) (every instance
  /// reachable, no bitmap is materialized). Built on first use by merging
  /// each instance list against its virtual parent type's (already-built)
  /// bitmap — one linear group merge per edge of the vtype path instead of
  /// a per-node parent-chain walk.
  const std::vector<uint8_t>* ReachableBitmap(vdg::VTypeId t) const;
  /// @}

  /// All instances of the original type \p t batch-decoded into a flat
  /// component column (pbn/packed.h), aligned index-for-index with
  /// NodeIdsOfType(t) / PackedNodesOfType(t). Built on first use and
  /// cached for the life of the document; \p built_now (optional) reports
  /// whether this call performed the decode (the ExecStats
  /// `decoded_batches` counter). Thread-safe.
  const num::DecodedPbnColumn& DecodedNodesOfType(
      dg::TypeId t, bool* built_now = nullptr) const;

  /// Sorts \p nodes into virtual document order and removes duplicates.
  /// The instances of one vtype share one original type and the same
  /// level array, so their virtual order is their row order in that type's
  /// list: each vtype's run sorts by row, and only a k-way merge across
  /// vtypes compares numbers.
  void SortVirtualOrder(std::vector<VirtualNode>* nodes) const;

  /// Instances of type \p ct related to node \p x through their least
  /// common ancestor type, per the three LCA cases (the raw placement
  /// relation behind Children/Parents). Results in original document order.
  std::vector<VirtualNode> RelatedInstances(xml::NodeId x,
                                            vdg::VTypeId ct) const;

 private:
  /// An assembled per-vtype value column owning a private dictionary:
  /// columns are immutable once stored, and private dictionaries keep
  /// concurrent readers of finished columns independent of later builds
  /// (a shared growing dictionary would race).
  struct AssembledValueColumn {
    idx::Dictionary dict;
    idx::TypeColumn column;
  };

  std::vector<uint8_t> BuildReachableBitmap(vdg::VTypeId t) const;

  const storage::StoredDocument* stored_ = nullptr;
  // unique_ptr keeps the guide's address stable across moves of the
  // VirtualDocument; the VpbnSpace holds a pointer into it.
  std::unique_ptr<vdg::VDataGuide> vguide_;
  VpbnSpace space_;
  std::vector<bool> intact_;      // by VTypeId
  std::vector<bool> guaranteed_;  // by VTypeId
  // Lazily-built caches shared by concurrent query threads. Each mutex is
  // held only around slot access, never across a build (a bitmap build
  // recurses up the vtype path, which would self-deadlock); entries are
  // unique_ptr so a stored cache keeps a stable address across later
  // insertions, and a slot is written at most once (a losing racer's copy
  // is discarded). The bitmap recursion terminates because the vDataGuide
  // is a tree — every hop strictly shortens the vtype path to a root.
  mutable std::mutex decoded_mu_;
  mutable std::vector<std::unique_ptr<num::DecodedPbnColumn>>
      decoded_;  // by original TypeId
  mutable std::mutex reach_mu_;
  mutable std::vector<std::unique_ptr<std::vector<uint8_t>>>
      reach_;  // by VTypeId; null slot = not built (or guaranteed)
  mutable std::mutex vvalue_mu_;
  mutable std::vector<std::unique_ptr<AssembledValueColumn>>
      vvalue_cols_;  // by VTypeId; null slot = not built (or served stored)
};

}  // namespace vpbn::virt
