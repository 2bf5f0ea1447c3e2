// Relational algebra over NamedRelation: selection, projection, natural join,
// semijoin, union, difference, intersection, cross product, active-domain
// complement. These are the operators the paper's algorithms are stated in
// (S_j = π_{U_j} σ_{F_j}(R_{i_j}), P_u := σ_F(P_u ⋈ π_{Y_j∩Y_u}(P_j)), ...).
//
// σ, π, ⋈ and ⋉ are the engine's only row kernels, sequential and parallel
// alike. Each takes a trailing `runtime` (default: sequential) and an
// optional `morsels` counter. When runtime.ShouldMorsel(input rows) holds,
// the kernel splits its input (the probe side, for ⋈ and ⋉) into morsels of
// runtime.morsel_rows rows, run as scheduler tasks under a
// `morsel.select|project|join|semijoin` trace span, and adds the number of
// morsels to `*morsels`. Each morsel writes into its own buffer or its own
// prefix-offset slice of the output, in morsel order, so the output holds
// the same rows in the same order as one chunk would: results are
// byte-identical at any width and morsel size. A morsel is skipped once
// runtime.Interrupted(); the caller must re-check the abort before using
// the result. Otherwise the kernel runs one chunk straight into its output
// and leaves `*morsels` alone. The zero-copy returns (identity σ, no-op π,
// all-survivors and degenerate ⋉) are the same at any width.
#ifndef PARAQUERY_RELATIONAL_OPS_H_
#define PARAQUERY_RELATIONAL_OPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.hpp"
#include "relational/named_relation.hpp"
#include "relational/predicate.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

class RowIndex;

/// σ: rows of `in` satisfying `pred` (columns indexed by position in `in`).
/// An empty predicate returns a zero-copy view of `in` (shared row storage).
NamedRelation Select(const NamedRelation& in, const Predicate& pred,
                     const RuntimeOptions& runtime = {},
                     size_t* morsels = nullptr);

/// π: keeps `attrs` (each must exist in `in`) in the given order.
/// Deduplicates the result when `dedup` is true (set semantics).
/// A no-op projection (attrs == in.attrs()) returns a zero-copy view.
/// Deduplication runs after the morsels merge and keeps first occurrences.
NamedRelation Project(const NamedRelation& in, const std::vector<AttrId>& attrs,
                      bool dedup = true, const RuntimeOptions& runtime = {},
                      size_t* morsels = nullptr);

/// Options for joins.
struct JoinOptions {
  /// Applied to each output row before it is materialized; column indices
  /// refer to the OUTPUT schema (left attrs then right-only attrs).
  Predicate post_filter;
  /// Abort (ResourceExhausted) if the output would exceed this many rows.
  /// 0 means unlimited.
  uint64_t max_output_rows = 0;
};

/// ⋈: natural join on the common attributes. Output schema is `left.attrs()`
/// followed by the attributes of `right` not present in `left`. A join with
/// a post filter or a row cap runs as one chunk at any width.
Result<NamedRelation> NaturalJoin(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const JoinOptions& options = {},
                                  const RuntimeOptions& runtime = {},
                                  size_t* morsels = nullptr);

/// Key columns of `right` that NaturalJoin(left, right) probes: for each left
/// attribute present in right, the matching right column, in left-attribute
/// order. Use to prebuild a RowIndex for the overload below.
std::vector<int> JoinKeyColumns(const NamedRelation& left,
                                const NamedRelation& right);

/// NaturalJoin against a caller-owned index over `right.rel()`, for reuse of
/// one build across many probes (e.g. fixpoint iterations over a static EDB
/// relation). `right_index` must index `right.rel()` — or any Relation view
/// sharing its row storage, such as an attribute-relabeled view of the same
/// cached materialization — on exactly JoinKeyColumns(left, right).
Result<NamedRelation> NaturalJoin(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const RowIndex& right_index,
                                  const JoinOptions& options = {},
                                  const RuntimeOptions& runtime = {},
                                  size_t* morsels = nullptr);

/// ⋉: rows of `left` that join with at least one row of `right` on the
/// common attributes. Output schema equals `left.attrs()`.
NamedRelation Semijoin(const NamedRelation& left, const NamedRelation& right,
                       const RuntimeOptions& runtime = {},
                       size_t* morsels = nullptr);

/// The morsel driver under σ and π, shared with the plan executor's counting
/// operators: runs fill(buf, begin, end) over the rows [0, n) and returns
/// the values it appended. Split as described at the top of this file
/// (`span` names the morsel trace span; null records none), with the
/// per-morsel buffers concatenated in morsel order; otherwise one call
/// fills the result directly.
std::vector<Value> MorselRows(
    size_t n, const RuntimeOptions& runtime, const char* span,
    size_t* morsels,
    const std::function<void(std::vector<Value>&, size_t, size_t)>& fill);

/// ∪ over identical attribute sets (column order of `right` is aligned to
/// `left`). Result is deduplicated.
NamedRelation UnionSet(const NamedRelation& left, const NamedRelation& right);

/// Set difference left − right over identical attribute sets.
NamedRelation Difference(const NamedRelation& left, const NamedRelation& right);

/// Set intersection over identical attribute sets.
NamedRelation Intersect(const NamedRelation& left, const NamedRelation& right);

/// × over disjoint attribute sets.
Result<NamedRelation> CrossProduct(const NamedRelation& left,
                                   const NamedRelation& right,
                                   uint64_t max_output_rows = 0);

/// All |domain|^|attrs| rows over `attrs` (used by active-domain complement).
/// Fails with ResourceExhausted if the result exceeds `max_rows`.
Result<NamedRelation> DomainPower(const std::vector<AttrId>& attrs,
                                  const std::vector<Value>& domain,
                                  uint64_t max_rows);

/// Active-domain complement: DomainPower(attrs, domain) − in.
Result<NamedRelation> Complement(const NamedRelation& in,
                                 const std::vector<Value>& domain,
                                 uint64_t max_rows);

}  // namespace paraquery

#endif  // PARAQUERY_RELATIONAL_OPS_H_
