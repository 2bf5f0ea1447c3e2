// Yannakakis' algorithm for acyclic conjunctive queries (no comparisons):
// the classical tractability result the paper's Theorem 2 generalizes.
// Decision in O(q · n log n); full evaluation in time polynomial in input
// plus output via a semijoin full-reducer followed by an upward
// join-and-project pass.
//
// Since the physical-plan refactor, this evaluator lowers the query through
// plan/planner.hpp (which reproduces the exact semijoin-then-join schedule
// as a PlanNode DAG) and runs the shared plan executor; its counters are
// the executor's PlanStats.
#ifndef PARAQUERY_EVAL_ACYCLIC_H_
#define PARAQUERY_EVAL_ACYCLIC_H_

#include "common/status.hpp"
#include "eval/eval_context.hpp"
#include "plan/plan.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Decides Q(d) != {} for an acyclic comparison-free conjunctive query.
/// `plan_stats`, when given, receives the shared executor's counters.
/// ctx.full_reducer = false drops the downward semijoin pass (ablation
/// E7b): still correct, but dangling tuples inflate intermediate joins.
Result<bool> AcyclicNonempty(const Database& db, const ConjunctiveQuery& q,
                             const EvalContext& ctx = {},
                             PlanStats* plan_stats = nullptr);

/// Computes Q(d) for an acyclic comparison-free conjunctive query.
Result<Relation> AcyclicEvaluate(const Database& db, const ConjunctiveQuery& q,
                                 const EvalContext& ctx = {},
                                 PlanStats* plan_stats = nullptr);

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_ACYCLIC_H_
