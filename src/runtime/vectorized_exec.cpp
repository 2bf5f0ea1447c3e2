#include "runtime/vectorized_exec.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/trace.hpp"
#include "relational/column_block.hpp"
#include "relational/vectorized.hpp"

namespace paraquery {

namespace {

// The inter-stage intermediate: schema-ordered column stripes over `rows`
// positions, of which either all (`dense`) or the ascending `sel` subset are
// live. `table` keeps the stripes' storage alive (null when rows == 0).
struct Batch {
  std::shared_ptr<const ColumnarTable> table;
  std::vector<AttrId> attrs;
  std::vector<const Value*> cols;  // parallel to attrs; null when rows == 0
  std::vector<vec::SelIdx> sel;    // ascending; used when !dense
  bool dense = true;
  size_t rows = 0;  // stripe length
  size_t count() const { return dense ? rows : sel.size(); }
};

Batch EmptyBatch(const std::vector<AttrId>& attrs) {
  Batch b;
  b.attrs = attrs;
  b.cols.assign(attrs.size(), nullptr);
  return b;
}

int ColumnOfAttr(const std::vector<AttrId>& attrs, AttrId a) {
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] == a) return static_cast<int>(i);
  }
  return -1;
}

// Select stage: narrows the batch's selection by `pred`, morsel-parallel
// with per-chunk outputs concatenated in chunk order (positions stay
// ascending, exactly the row order the scalar Select keeps). Returns the
// chunk count.
size_t FilterStage(Batch& cur, const Predicate& pred, const VecExecEnv& env,
                   size_t grain) {
  const size_t m = cur.count();
  if (m == 0) {
    cur.sel.clear();
    cur.dense = false;
    return 0;
  }
  const size_t nchunks = (m + grain - 1) / grain;
  std::vector<std::vector<vec::SelIdx>> parts(nchunks);
  const Value* const* cols = cur.cols.data();
  ForChunks(env.pfor, m, grain, [&](size_t c, size_t b, size_t e) {
    if (env.runtime.Interrupted()) return;  // partial result discarded later
    TraceSpan span(env.runtime.tracer, "batch.filter");
    std::vector<vec::SelIdx>& out = parts[c];
    if (cur.dense) {
      vec::FilterRange(pred.constraints(), cols, b, e, out);
    } else {
      out.assign(cur.sel.begin() + b, cur.sel.begin() + e);
      size_t k = out.size();
      for (const Constraint& cst : pred.constraints()) {
        if (k == 0) break;
        k = vec::FilterSel(cst, cols, out.data(), k);
      }
      out.resize(k);
    }
  });
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<vec::SelIdx> merged;
  merged.reserve(total);
  for (const auto& p : parts) merged.insert(merged.end(), p.begin(), p.end());
  cur.sel = std::move(merged);
  cur.dense = false;
  return nchunks;
}

// HashJoin stage: batch-probes `idx` (built over `right` by the caller's
// get_index), expands the match chains to (probe position, build row) pairs
// at deterministic per-chunk offsets, then gathers the output columns dense,
// column at a time. Replaces `cur` with the join result.
Status JoinStage(Batch& cur, PlanNode& sn, const NamedRelation& right,
                 const VecExecEnv& env, size_t grain, size_t* chunks_out) {
  // Column mappings, computed from the actual schemas exactly like the
  // scalar NaturalJoin: shared attributes in probe-attr order; output =
  // probe attrs then right-only attrs.
  std::vector<int> lcols, rcols;
  for (size_t i = 0; i < cur.attrs.size(); ++i) {
    int rc = ColumnOfAttr(right.attrs(), cur.attrs[i]);
    if (rc >= 0) {
      lcols.push_back(static_cast<int>(i));
      rcols.push_back(rc);
    }
  }
  std::vector<AttrId> out_attrs = cur.attrs;
  std::vector<int> right_extra;
  for (size_t i = 0; i < right.attrs().size(); ++i) {
    if (ColumnOfAttr(cur.attrs, right.attrs()[i]) < 0) {
      out_attrs.push_back(right.attrs()[i]);
      right_extra.push_back(static_cast<int>(i));
    }
  }
  std::optional<RowIndex> local;
  const RowIndex& idx = env.get_index(*sn.children[1], right, rcols, local);

  const size_t m = cur.count();
  if (cur.dense) {
    cur.sel.resize(m);
    for (size_t i = 0; i < m; ++i) cur.sel[i] = static_cast<vec::SelIdx>(i);
    cur.dense = false;
  }
  const std::vector<vec::SelIdx>& sel = cur.sel;
  std::vector<const Value*> key_ptrs(lcols.size());
  for (size_t j = 0; j < lcols.size(); ++j) key_ptrs[j] = cur.cols[lcols[j]];

  // Pass 1: probe, and size each chunk's output exactly.
  const size_t nchunks = (m + grain - 1) / grain;
  *chunks_out = nchunks;
  std::vector<uint32_t> heads(m);
  std::vector<size_t> chunk_rows(nchunks, 0);
  ForChunks(env.pfor, m, grain, [&](size_t c, size_t b, size_t e) {
    if (env.runtime.Interrupted()) return;
    TraceSpan span(env.runtime.tracer, "batch.probe");
    std::vector<uint64_t> scratch(e - b);
    idx.BatchFind(key_ptrs, std::span<const uint32_t>(sel.data() + b, e - b),
                  heads.data() + b, scratch.data());
    size_t t = 0;
    for (size_t i = b; i < e; ++i) {
      if (heads[i] != RowIndex::kNone) t += idx.MatchCount(heads[i]);
    }
    chunk_rows[c] = t;
  });
  PQ_RETURN_NOT_OK(env.runtime.CheckInterrupt());
  std::vector<size_t> chunk_off(nchunks + 1, 0);
  for (size_t c = 0; c < nchunks; ++c) {
    chunk_off[c + 1] = chunk_off[c] + chunk_rows[c];
  }
  const size_t total = chunk_off[nchunks];

  // Pass 2: expand chains — ascending probe positions, each chain in
  // increasing build-row order, the scalar join's emit order.
  std::vector<vec::SelIdx> lpos(total);
  std::vector<uint32_t> rrow(total);
  ForChunks(env.pfor, m, grain, [&](size_t c, size_t b, size_t e) {
    if (env.runtime.Interrupted()) return;
    TraceSpan span(env.runtime.tracer, "batch.expand");
    size_t off = chunk_off[c];
    for (size_t i = b; i < e; ++i) {
      uint32_t rr = heads[i];
      if (rr == RowIndex::kNone) continue;
      const vec::SelIdx pos = sel[i];
      for (; rr != RowIndex::kNone; rr = idx.Next(rr)) {
        lpos[off] = pos;
        rrow[off] = rr;
        ++off;
      }
    }
  });
  PQ_RETURN_NOT_OK(env.runtime.CheckInterrupt());

  // Pass 3: gather the output dense, column at a time (probe columns by
  // position, right-only columns strided out of the build side's row-major
  // storage).
  const size_t larity = cur.attrs.size();
  const size_t out_arity = out_attrs.size();
  std::vector<std::vector<Value>> outv(out_arity);
  for (auto& v : outv) v.resize(total);
  const Value* rbase = right.rel().data().data();
  const size_t rarity = right.arity();
  ForChunks(env.pfor, total, grain, [&](size_t, size_t b, size_t e) {
    if (env.runtime.Interrupted()) return;
    TraceSpan span(env.runtime.tracer, "batch.gather");
    for (size_t j = 0; j < larity; ++j) {
      const Value* src = cur.cols[j];
      Value* dst = outv[j].data();
      for (size_t i = b; i < e; ++i) dst[i] = src[lpos[i]];
    }
    for (size_t k = 0; k < right_extra.size(); ++k) {
      const int rc = right_extra[k];
      Value* dst = outv[larity + k].data();
      for (size_t i = b; i < e; ++i) {
        dst[i] = rbase[static_cast<size_t>(rrow[i]) * rarity + rc];
      }
    }
  });
  PQ_RETURN_NOT_OK(env.runtime.CheckInterrupt());

  // Fresh dense intermediate; ColumnBlock charges the query's accountant.
  Batch next;
  next.attrs = std::move(out_attrs);
  next.cols.assign(out_arity, nullptr);
  std::vector<std::shared_ptr<const ColumnBlock>> blocks;
  blocks.reserve(out_arity);
  for (size_t c = 0; c < out_arity; ++c) {
    auto blk = std::make_shared<ColumnBlock>(std::move(outv[c]));
    next.cols[c] = blk->values.data();
    blocks.push_back(std::move(blk));
  }
  next.table = ColumnarTable::FromColumns(std::move(blocks), total);
  next.rows = total;
  cur = std::move(next);
  return Status::OK();
}

// Sink: transposes the live positions back to row-major storage.
Result<NamedRelation> Transpose(const Batch& cur, const VecExecEnv& env,
                                size_t grain, size_t* chunks_out) {
  const size_t m = cur.count();
  const size_t arity = cur.attrs.size();
  std::vector<Value> out(m * arity);
  const size_t nchunks = (m + grain - 1) / grain;
  *chunks_out = nchunks;
  ForChunks(env.pfor, m, grain, [&](size_t, size_t b, size_t e) {
    if (env.runtime.Interrupted()) return;
    TraceSpan span(env.runtime.tracer, "batch.transpose");
    Value* dst = out.data() + b * arity;
    if (cur.dense) {
      for (size_t i = b; i < e; ++i) {
        for (size_t c = 0; c < arity; ++c) *dst++ = cur.cols[c][i];
      }
    } else {
      for (size_t i = b; i < e; ++i) {
        const size_t pos = cur.sel[i];
        for (size_t c = 0; c < arity; ++c) *dst++ = cur.cols[c][pos];
      }
    }
  });
  PQ_RETURN_NOT_OK(env.runtime.CheckInterrupt());
  return NamedRelation{cur.attrs, Relation(arity, std::move(out))};
}

}  // namespace

Result<NamedRelation> ExecuteVecPipeline(const VecPipeline& pipe,
                                         const VecExecEnv& env,
                                         size_t* batches_out) {
  PlanNode& mat = *pipe.materialize;
  const int slot = pipe.source->input_slot;
  if (slot < 0 || static_cast<size_t>(slot) >= env.inputs.size()) {
    return Status::Internal("plan scan references an unbound slot");
  }
  const NamedRelation& src = *env.inputs[slot];
  env.on_scan(*pipe.source, src.size());
  const size_t grain = std::max<size_t>(env.runtime.morsel_rows, 1);
  const bool parallel = static_cast<bool>(env.pfor);
  size_t& batches = *batches_out;
  batches = 0;

  Batch cur;
  cur.attrs = src.attrs();
  cur.rows = src.size();
  cur.cols.assign(cur.attrs.size(), nullptr);
  if (cur.rows > 0) {
    cur.table = src.rel().ColumnarView(env.pfor);
    for (size_t c = 0; c < cur.attrs.size(); ++c) {
      cur.cols[c] = cur.table->col(c);
    }
  }

  for (PlanNode* stage : pipe.stages) {
    PlanNode& sn = *stage;
    PQ_RETURN_NOT_OK(env.runtime.CheckInterrupt());
    TraceSpan stage_span(env.runtime.tracer, "vec.stage", PlanOpName(sn.op));
    switch (sn.op) {
      case PlanOp::kSelect: {
        size_t chunks = FilterStage(cur, sn.predicate, env, grain);
        batches += chunks;
        PQ_RETURN_NOT_OK(env.account(sn, &PlanStats::selects, cur.count(),
                                     parallel ? chunks : 0));
        break;
      }
      case PlanOp::kProject: {
        const bool same_attrs = sn.attrs == cur.attrs;
        std::vector<const Value*> ncols(sn.attrs.size(), nullptr);
        if (cur.rows > 0) {
          for (size_t i = 0; i < sn.attrs.size(); ++i) {
            int c = ColumnOfAttr(cur.attrs, sn.attrs[i]);
            if (c < 0) {
              return Status::Internal(
                  "vectorized Project: attribute not present in input");
            }
            ncols[i] = cur.cols[c];
          }
        }
        cur.cols = std::move(ncols);
        cur.attrs = sn.attrs;
        if (sn.dedup) {
          // Final sink stage (compile guarantees): materialize the projected
          // rows, then dedup — the scalar Project accounts its post-dedup
          // size, so dedup must precede the tally.
          size_t chunks = 0;
          PQ_ASSIGN_OR_RETURN(NamedRelation out,
                              Transpose(cur, env, grain, &chunks));
          batches += chunks;
          out.rel().HashDedup(env.pfor);
          mat.actual_batches = batches;
          PQ_RETURN_NOT_OK(env.account(sn, &PlanStats::projections, out.size(),
                                       parallel ? chunks : 0));
          return out;
        }
        if (same_attrs && env.on_zero_copy_projection) {
          env.on_zero_copy_projection();
        }
        PQ_RETURN_NOT_OK(
            env.account(sn, &PlanStats::projections, cur.count(), 0));
        break;
      }
      case PlanOp::kHashJoin: {
        // The scalar executor short-circuits an empty probe or build side:
        // the join returns its statically empty output without running — or
        // accounting — anything further; an empty probe side also skips the
        // build subtree entirely.
        if (cur.count() == 0) {
          sn.actual_rows = 0;
          cur = EmptyBatch(sn.attrs);
          break;
        }
        PQ_ASSIGN_OR_RETURN(NamedRelation right, env.exec_rows(*sn.children[1]));
        if (right.empty()) {
          sn.actual_rows = 0;
          cur = EmptyBatch(sn.attrs);
          break;
        }
        size_t chunks = 0;
        PQ_RETURN_NOT_OK(JoinStage(cur, sn, right, env, grain, &chunks));
        batches += chunks;
        PQ_RETURN_NOT_OK(env.account(sn, &PlanStats::joins, cur.count(),
                                     parallel ? chunks : 0));
        break;
      }
      default:
        return Status::Internal("unexpected vectorized stage operator");
    }
  }
  size_t chunks = 0;
  PQ_ASSIGN_OR_RETURN(NamedRelation out, Transpose(cur, env, grain, &chunks));
  batches += chunks;
  mat.actual_batches = batches;
  return out;
}

}  // namespace paraquery
