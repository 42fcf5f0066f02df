/// \file value_pushdown.h
/// \brief Shared planning pieces for pushing value predicates into the
/// dictionary-encoded value index (index/value_index.h).
///
/// Set-at-a-time evaluation (query/eval_bulk.cc) and the view adapter's
/// witness-first predicates (query/eval_virtual.h) recognize the same
/// predicate shapes and answer them from the same index structures; the
/// per-node indexed adapter (query/eval_indexed.h) pushes nothing down:
///
///   [path op literal]        -> per terminal type, a postings lookup
///                               (equality) or a binary-searched slice of
///                               the numeric column (relational);
///   [@attr op literal]       -> a term-id mask over the context rows;
///   [contains(path, lit)]    -> a term bitmap built by testing each
///   [starts-with(path, lit)]    distinct dictionary term once;
///
/// `path` must be a predicate-free child/descendant chain
/// (query::IsPredicateFreeChain), which is what makes type-level planning
/// exact: every instance of a resolved terminal type inside a context
/// node's subtree is connected to it by exactly the chain's steps.
///
/// Everything here mirrors the scan path's semantics (evaluator.h
/// CompareValues / contains / starts-with) *by construction*: literals are
/// rendered with the same number-to-string rules, numbers are parsed with
/// the same idx::ParseNumber, so pushdown answers are byte-identical to
/// per-node evaluation — the property tests/value_index_test.cc enforces.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dataguide/dataguide.h"
#include "index/value_index.h"
#include "query/exec_context.h"
#include "query/path_ast.h"

namespace vpbn::query {

/// \brief A comparison literal, prepared once per predicate: the exact text
/// the scan path would compare against, plus its numeric interpretation.
/// For kNumber literals the text is the scan path's rendering (integers
/// without ".0", otherwise std::to_string's 6-decimal form) and `num` is
/// that text re-parsed — using the expression's double directly would
/// diverge from the scan path for non-representable literals.
struct ValueLiteral {
  std::string text;
  bool numeric = false;
  double num = 0;
};

/// \brief Builds a ValueLiteral from a kString / kNumber expression.
ValueLiteral MakeLiteral(const Expr& literal);

/// \brief A recognized pushable predicate shape.
struct ValuePred {
  enum class Kind : uint8_t {
    kPathCompare,  ///< [path op literal] (either operand order)
    kAttrCompare,  ///< [@attr op literal]
    kPathString,   ///< [contains(path, lit)] / [starts-with(path, lit)]
    kAttrString,   ///< [contains(@attr, lit)] / [starts-with(@attr, lit)]
  };
  Kind kind = Kind::kPathCompare;
  const Path* path = nullptr;  ///< kPath*: predicate-free chain
  std::string attr;            ///< kAttr*: attribute name
  CompareOp op = CompareOp::kEq;               ///< k*Compare (mirrored if
                                               ///< the literal was on the
                                               ///< left)
  Expr::Kind str_fn = Expr::Kind::kContains;   ///< k*String
  ValueLiteral lit;
};

/// \brief Recognizes the pushable shapes above. False for anything else
/// (the caller falls back to per-node evaluation).
bool RecognizeValuePred(const Expr& e, ValuePred* out);

/// \brief Whether interned term \p term satisfies `term op lit`. Mirrors
/// CompareValues exactly: numeric when both sides are numbers, string
/// equality/inequality otherwise, relational ops strictly numeric. kNoTerm
/// (absent attribute) never matches — a missing value compares false under
/// every operator.
bool TermMatches(const idx::Dictionary& dict, uint32_t term, CompareOp op,
                 const ValueLiteral& lit);

/// \brief contains() / starts-with() over one term, mirroring evaluator.h.
inline bool TermMatchesString(std::string_view hay, Expr::Kind fn,
                              std::string_view needle) {
  return fn == Expr::Kind::kContains
             ? hay.find(needle) != std::string_view::npos
             : hay.substr(0, needle.size()) == needle;
}

/// \brief The ascending instance rows of \p col whose value satisfies
/// `value op lit`: a postings vector (equality), a numeric-column slice
/// (relational), or a term-column scan (!=). Counts index probes and rows
/// into \p ctx (nullable).
std::vector<uint32_t> CollectMatchingRows(const idx::TypeColumn& col,
                                          CompareOp op,
                                          const ValueLiteral& lit,
                                          ExecContext* ctx);

/// \brief CollectMatchingRows memoized in the execution's cache under
/// (\p pred, \p t) — every context group and every repetition of the
/// predicate reuses one collection. Uncached when \p ctx is null.
std::shared_ptr<const std::vector<uint32_t>> MatchingRows(
    const idx::TypeColumn& col, const Expr* pred, dg::TypeId t, CompareOp op,
    const ValueLiteral& lit, ExecContext* ctx);

/// \brief Terminal DataGuide types a predicate-free chain reaches from
/// \p context (type-level frontier walk; '//'-anonymous steps expand the
/// frontier with all descendant types). Sorted ascending.
std::vector<dg::TypeId> ResolveChainTypes(const dg::DataGuide& g,
                                          dg::TypeId context,
                                          const Path& path);

/// \brief ResolveChainTypes memoized per (\p path, \p context) in the
/// execution's cache. Uncached when \p ctx is null.
std::shared_ptr<const std::vector<dg::TypeId>> ChainTypes(
    const dg::DataGuide& g, const Path* path, dg::TypeId context,
    ExecContext* ctx);

/// \brief One byte per dictionary term, 1 where the term satisfies the
/// contains()/starts-with() needle — each distinct value is tested once,
/// then per-node checks are O(1) bitmap probes. Memoized per (dictionary,
/// function, needle) in \p ctx when non-null. \p dict must be immutable
/// for the bitmap's lifetime (the stored index's dictionary is).
std::shared_ptr<const std::vector<uint8_t>> TermBitmap(
    const idx::Dictionary& dict, Expr::Kind fn, std::string_view needle,
    ExecContext* ctx);

}  // namespace vpbn::query
