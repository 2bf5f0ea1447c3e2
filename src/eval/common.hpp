// Shared helpers for the evaluators: turning a relational atom into an
// attribute-labelled relation over its variables (the S_j = π_{U_j}
// σ_{F_j}(R_{i_j}) step that every algorithm in the paper starts with), and
// mapping variable bindings through head terms into answer tuples.
#ifndef PARAQUERY_EVAL_COMMON_H_
#define PARAQUERY_EVAL_COMMON_H_

#include <vector>

#include "common/status.hpp"
#include "query/term.hpp"
#include "relational/database.hpp"
#include "relational/named_relation.hpp"

namespace paraquery {

/// Builds the relation S over the distinct variables U of `atom` from the
/// stored relation `rel`: selects rows matching the atom's constants and
/// repeated-variable equalities, then projects one column per variable (in
/// order of first occurrence). `filters` are comparison atoms whose variables
/// all occur in the atom (plus var/constant comparisons); they are folded
/// into the selection, implementing the paper's "push the I2 inequalities
/// into F_j". Returns InvalidArgument if the atom arity mismatches or a
/// filter references a variable outside the atom.
Result<NamedRelation> AtomToRelation(const Relation& rel, const Atom& atom,
                                     const std::vector<CompareAtom>& filters = {});

/// Resolves `atom.relation` in `db` and delegates to AtomToRelation.
Result<NamedRelation> AtomToRelation(const Database& db, const Atom& atom,
                                     const std::vector<CompareAtom>& filters = {});

/// Converts variable bindings (a relation whose attributes are VarIds
/// covering every head variable) into answer tuples through `head`:
/// variables are looked up, constants copied. With `sort_output` true (the
/// default, used for user-facing answers) the result is sorted and
/// deduplicated; with false it may contain duplicates — callers that
/// gather several bindings (fixpoint rounds, Theorem 2 colorings) append
/// them and sort once at the end. When the head reads the bindings' columns
/// in order, the unsorted result is a zero-copy view of the bindings.
Relation BindingsToAnswers(const NamedRelation& bindings,
                           const std::vector<Term>& head,
                           bool sort_output = true);

/// True if every variable of `cmp` occurs in `atom_vars`.
bool ComparisonWithin(const CompareAtom& cmp, const std::vector<VarId>& atom_vars);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_COMMON_H_
