// The per-query evaluation context: the run environment every evaluator
// shares. Engine::Run builds one per query and hands the same object to
// the chosen route and to every nested evaluation under it (UCQ disjuncts,
// the counting fallback, Datalog rule firings, Theorem 2 colorings), so a
// limit or planner switch set once reaches every plan the query executes.
// Route-specific knobs (the Theorem 2 coloring driver, the Datalog iteration
// cap, the active-domain row cap) stay in their evaluators' own options.
#ifndef PARAQUERY_EVAL_EVAL_CONTEXT_H_
#define PARAQUERY_EVAL_EVAL_CONTEXT_H_

#include "plan/plan.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

struct EvalContext {
  /// Resource guard enforced on every plan execution of the query (the
  /// deadline and memory members act through runtime.query_ctx).
  ResourceLimits limits;
  /// Parallel runtime, abort token and observability hooks (default:
  /// sequential, unhardened, untraced).
  RuntimeOptions runtime;
  /// Cross-query plan cache (optional, engine-owned). Every plan key
  /// carries the planner switches below, so a plan built under one setting
  /// is never served under another.
  PlanCache* plan_cache = nullptr;
  /// Planner switches; answers are byte-identical either way (see
  /// PlannerOptions). full_reducer is an ablation knob for direct callers:
  /// the Engine always runs the downward semijoin pass.
  bool vectorize = true;
  bool wcoj = true;
  bool full_reducer = true;

  PlannerOptions planner() const {
    PlannerOptions p;
    p.full_reducer = full_reducer;
    p.vectorize = vectorize;
    p.wcoj = wcoj;
    return p;
  }
};

}  // namespace paraquery

#endif  // PARAQUERY_EVAL_EVAL_CONTEXT_H_
