// Naive evaluation of conjunctive queries (with arbitrary comparison atoms).
// This is the textbook combined-complexity algorithm the paper's analysis
// targets: worst case n^{O(q)}. It serves as ground truth for every other
// engine and as the baseline exhibiting "parameter in the exponent" in the
// benchmarks.
//
// Since the physical-plan refactor, NaiveEvaluateCq lowers the query through
// the cyclic planner (greedy smallest-relation-first order with
// bound-variable propagation) and runs the shared plan executor. Memory
// profile: the executor MATERIALIZES each intermediate join (memory tracks
// the largest satisfying-prefix set), where the old DFS enumerated bindings
// in O(q·n) memory at the same time complexity — set ResourceLimits, or use
// BacktrackEvaluateCq, when intermediates may dwarf the output. The decision
// entry points keep the indexed backtracking search: they stop at the first
// witness, which a materializing executor cannot, and the search consumes
// the same GreedyAtomOrder the planner uses. The backtracking FULL evaluator
// remains available (BacktrackEvaluateCq) as the constant-memory path and
// the plan-independent oracle for differential tests.
#ifndef PARAQUERY_EVAL_NAIVE_H_
#define PARAQUERY_EVAL_NAIVE_H_

#include "common/status.hpp"
#include "eval/eval_context.hpp"
#include "plan/plan.hpp"
#include "query/conjunctive_query.hpp"
#include "relational/database.hpp"

namespace paraquery {

/// Computes the full answer Q(d) via the cyclic planner + shared executor.
/// `plan_stats`, when given, receives the executor's counters; max_steps
/// counts rows produced by operators. Repeated cyclic queries reuse their
/// plan through ctx.plan_cache.
Result<Relation> NaiveEvaluateCq(const Database& db, const ConjunctiveQuery& q,
                                 const EvalContext& ctx = {},
                                 PlanStats* plan_stats = nullptr);

/// Computes Q(d) with the indexed backtracking search (no plan, no
/// materialized intermediates). Reference oracle for differential tests.
/// The backtracking entry points are sequential searches: of `ctx` they use
/// limits.max_steps (counting search steps), runtime.query_ctx (abort
/// polling) and runtime.tracer.
Result<Relation> BacktrackEvaluateCq(const Database& db,
                                     const ConjunctiveQuery& q,
                                     const EvalContext& ctx = {});

/// Decides Q(d) != {} (backtracking; stops at the first witness).
Result<bool> NaiveCqNonempty(const Database& db, const ConjunctiveQuery& q,
                             const EvalContext& ctx = {});

/// Decides t ∈ Q(d) by binding the head and testing nonemptiness.
Result<bool> NaiveCqContains(const Database& db, const ConjunctiveQuery& q,
                             const std::vector<Value>& tuple,
                             const EvalContext& ctx = {});

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_NAIVE_H_
