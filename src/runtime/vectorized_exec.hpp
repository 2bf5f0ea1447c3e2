// Stage-at-a-time runner for compiled columnar pipelines (plan/
// vec_pipeline.hpp).
//
// Execution walks the chain source-to-sink. The intermediate between stages
// is a set of column stripes plus a selection vector: a Select narrows the
// selection (morsel-parallel, per-chunk outputs concatenated in chunk order,
// so positions stay ascending); a mid-chain Project remaps column pointers
// without touching data; a HashJoin batch-probes a RowIndex over its
// row-executed build side and gathers the matches into a fresh dense columnar
// intermediate; the sink transposes back to row-major storage (running the
// final deduplicating Project's HashDedup on the materialized rows).
//
// Byte-identity contract: selections keep ascending position order and join
// chains expand in increasing build-row order, so the materialized result is
// bit-for-bit the row-at-a-time executor's, at any execution width.
// Limit parity: stages are tallied through `account` in chain order with the
// exact row counts the row executor would see — a join whose probe side is
// empty (or whose build side comes out empty) is skipped without executing
// the build subtree and without accounting, reproducing the row path's
// short-circuit — so a query passes or fails its ResourceLimits identically
// with vectorization on or off.
#ifndef PARAQUERY_RUNTIME_VECTORIZED_EXEC_H_
#define PARAQUERY_RUNTIME_VECTORIZED_EXEC_H_

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/parallel_for.hpp"
#include "common/status.hpp"
#include "plan/vec_pipeline.hpp"
#include "relational/named_relation.hpp"
#include "relational/row_index.hpp"
#include "runtime/scheduler.hpp"

namespace paraquery {

/// Callbacks back into the plan executor, keeping budget charging, stats
/// locking, and node memoization in one place (the executor).
struct VecExecEnv {
  /// Scan slot table (same as ExecContext::inputs).
  std::span<const NamedRelation* const> inputs;
  RuntimeOptions runtime;
  /// Bound over the runtime's scheduler when parallel; empty = sequential.
  ParallelForFn pfor;
  /// Executes a row subtree (a join stage's build side) under the caller's
  /// charge.
  std::function<Result<NamedRelation>(PlanNode&)> exec_rows;
  /// Tallies one finished stage: sets the node's actuals and applies the
  /// executor's Account logic (stats, max_steps/max_rows) to `rows`.
  std::function<Status(PlanNode&, size_t PlanStats::*, uint64_t rows,
                       size_t morsels)>
      account;
  /// Records the source scan (stats->scans, actual_rows); scans are
  /// limit-exempt.
  std::function<void(PlanNode&, uint64_t rows)> on_scan;
  /// Records a projection the row path would answer zero-copy.
  std::function<void()> on_zero_copy_projection;
  /// Returns the build index for a join stage: the executor routes cached
  /// scans through their JoinIndexCache and otherwise builds into `local`.
  std::function<const RowIndex&(PlanNode& right_node,
                                const NamedRelation& right,
                                const std::vector<int>& rcols,
                                std::optional<RowIndex>& local)>
      get_index;
};

/// Runs the compiled pipeline and returns the materialized row-major result.
/// Sets `*batches` to the column batches this execution processed (and
/// pipe.materialize->actual_batches, which concurrent executions of a
/// cached plan share); the Materialize node itself is not accounted (it
/// produces no rows beyond its child's).
Result<NamedRelation> ExecuteVecPipeline(const VecPipeline& pipe,
                                         const VecExecEnv& env,
                                         size_t* batches);

}  // namespace paraquery

#endif  // PARAQUERY_RUNTIME_VECTORIZED_EXEC_H_
