#include "relational/ops.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "relational/row_index.hpp"
#include "relational/value.hpp"

namespace paraquery {

namespace {

// Positions of the common attributes, as (left column, right column) pairs in
// left-attribute order.
std::vector<std::pair<int, int>> CommonColumns(const NamedRelation& left,
                                               const NamedRelation& right) {
  std::vector<std::pair<int, int>> out;
  for (size_t i = 0; i < left.attrs().size(); ++i) {
    int rc = right.ColumnOf(left.attrs()[i]);
    if (rc >= 0) out.emplace_back(static_cast<int>(i), rc);
  }
  return out;
}

// All column positions of `rel` (identity key: the full row).
std::vector<int> AllColumns(const Relation& rel) {
  std::vector<int> cols(rel.arity());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<int>(i);
  return cols;
}

// Chunk slots ForEachMorsel(n, runtime, ...) fills: one per morsel when it
// splits, else the one inline chunk.
size_t MorselSlots(size_t n, const RuntimeOptions& runtime) {
  return runtime.ShouldMorsel(n) ? ChunkCount(n, runtime.morsel_rows) : 1;
}

// Runs fn(chunk, begin, end) over [0, n): one inline call fn(0, 0, n) unless
// runtime.ShouldMorsel(n), else one scheduler task per morsel under a `span`
// trace span (none when null). A morsel is skipped once the query is
// interrupted; the caller re-checks the abort after the operator, so a
// result assembled from skipped morsels never escapes. Returns the number
// of morsels, 0 when it did not split.
template <typename Fn>
size_t ForEachMorsel(size_t n, const RuntimeOptions& runtime, const char* span,
                     const Fn& fn) {
  if (!runtime.ShouldMorsel(n)) {
    fn(size_t{0}, size_t{0}, n);
    return 0;
  }
  return ParallelChunks(
      runtime.scheduler, n, runtime.morsel_rows,
      [&](size_t c, size_t begin, size_t end) {
        if (runtime.Interrupted()) return;
        TraceSpan trace(span != nullptr ? runtime.tracer : nullptr, span);
        fn(c, begin, end);
      });
}

// Exclusive prefix sum of per-chunk row counts; returns the total.
size_t PrefixOffsets(std::vector<size_t>* counts) {
  size_t total = 0;
  for (size_t& c : *counts) {
    size_t n = c;
    c = total;
    total += n;
  }
  return total;
}

}  // namespace

std::vector<Value> MorselRows(
    size_t n, const RuntimeOptions& runtime, const char* span,
    size_t* morsels,
    const std::function<void(std::vector<Value>&, size_t, size_t)>& fill) {
  std::vector<std::vector<Value>> bufs(MorselSlots(n, runtime));
  size_t chunks = ForEachMorsel(
      n, runtime, span,
      [&](size_t c, size_t begin, size_t end) { fill(bufs[c], begin, end); });
  if (chunks == 0) return std::move(bufs[0]);
  if (morsels != nullptr) *morsels += chunks;
  size_t total = 0;
  for (const std::vector<Value>& b : bufs) total += b.size();
  std::vector<Value> out;
  out.reserve(total);
  for (const std::vector<Value>& b : bufs) {
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

std::vector<int> JoinKeyColumns(const NamedRelation& left,
                                const NamedRelation& right) {
  std::vector<int> rcols;
  for (auto [lc, rc] : CommonColumns(left, right)) rcols.push_back(rc);
  return rcols;
}

NamedRelation Select(const NamedRelation& in, const Predicate& pred,
                     const RuntimeOptions& runtime, size_t* morsels) {
  // Identity selection: every row passes, so return a storage-sharing view.
  if (pred.empty()) return in;
  const size_t arity = in.arity();
  // Zero-ary rows are all the empty row: they pass or fail together.
  if (arity == 0) return pred.Eval({}) ? in : NamedRelation{in.attrs()};
  std::vector<Value> out = MorselRows(
      in.size(), runtime, "morsel.select", morsels,
      [&](std::vector<Value>& buf, size_t begin, size_t end) {
        buf.reserve((end - begin) * arity);
        for (size_t r = begin; r < end; ++r) {
          auto row = in.rel().Row(r);
          if (pred.Eval(row)) buf.insert(buf.end(), row.begin(), row.end());
        }
      });
  return NamedRelation{in.attrs(), Relation(arity, std::move(out))};
}

NamedRelation Project(const NamedRelation& in, const std::vector<AttrId>& attrs,
                      bool dedup, const RuntimeOptions& runtime,
                      size_t* morsels) {
  // No-op projection (same attributes, same order): return a view sharing the
  // input's row storage. HashDedup only copies if duplicates actually exist.
  if (attrs == in.attrs()) {
    NamedRelation out = in;
    if (dedup) out.rel().HashDedup();
    return out;
  }
  std::vector<int> cols(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    int c = in.ColumnOf(attrs[i]);
    PQ_CHECK(c >= 0, "Project: attribute not present in input");
    cols[i] = c;
  }
  NamedRelation out{attrs};
  if (attrs.empty()) {
    // Zero-ary result: one empty row per input row.
    for (size_t r = 0; r < in.size(); ++r) out.rel().AddEmptyRow();
  } else {
    out.rel() = Relation(
        attrs.size(),
        MorselRows(in.size(), runtime, "morsel.project", morsels,
                   [&](std::vector<Value>& buf, size_t begin, size_t end) {
                     buf.reserve((end - begin) * cols.size());
                     for (size_t r = begin; r < end; ++r) {
                       for (int c : cols) buf.push_back(in.rel().At(r, c));
                     }
                   }));
  }
  // The rows are in input order at any width, so first-occurrence dedup
  // keeps the same rows in the same positions.
  if (dedup) out.rel().HashDedup();
  return out;
}

Result<NamedRelation> NaturalJoin(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const JoinOptions& options,
                                  const RuntimeOptions& runtime,
                                  size_t* morsels) {
  RowIndex index(right.rel(), JoinKeyColumns(left, right));
  return NaturalJoin(left, right, index, options, runtime, morsels);
}

Result<NamedRelation> NaturalJoin(const NamedRelation& left,
                                  const NamedRelation& right,
                                  const RowIndex& right_index,
                                  const JoinOptions& options,
                                  const RuntimeOptions& runtime,
                                  size_t* morsels) {
  // The index may have been built over any view sharing `right`'s row
  // storage (e.g. the Datalog EDB cache's canonical materialization probed
  // through a relabeled view); key columns are positional, so storage
  // identity plus column equality is the full validity condition.
  PQ_DCHECK((right.arity() == 0 ||
             right_index.rel().SharesStorageWith(right.rel())) &&
                right_index.key_cols() == JoinKeyColumns(left, right),
            "NaturalJoin: index does not match the join's key columns");
  auto common = CommonColumns(left, right);
  std::vector<int> lcols;
  for (auto [lc, rc] : common) lcols.push_back(lc);
  // Output schema: all of left, then right-only columns.
  std::vector<AttrId> out_attrs = left.attrs();
  std::vector<int> right_extra;  // right columns not in left
  for (size_t i = 0; i < right.attrs().size(); ++i) {
    if (!left.HasAttr(right.attrs()[i])) {
      out_attrs.push_back(right.attrs()[i]);
      right_extra.push_back(static_cast<int>(i));
    }
  }
  size_t larity = left.arity();
  size_t out_arity = out_attrs.size();

  // Fast path: no filter, no row limit — stream matches straight into a flat
  // row-major buffer, copying the left prefix once per probed row.
  if (options.post_filter.empty() && options.max_output_rows == 0 &&
      out_arity > 0) {
    // Probe pass: remember each left row's chain head and size each chunk's
    // output exactly, so the emit pass is pure pointer writes into one
    // allocation, each chunk into its own slice.
    size_t nl = left.size();
    std::vector<uint32_t> first(nl);
    std::vector<size_t> offsets(MorselSlots(nl, runtime), 0);
    size_t chunks = ForEachMorsel(
        nl, runtime, "morsel.join", [&](size_t c, size_t begin, size_t end) {
          size_t total = 0;
          for (size_t lr = begin; lr < end; ++lr) {
            uint32_t rr = right_index.Find(left.rel(), lr, lcols);
            first[lr] = rr;
            if (rr != RowIndex::kNone) total += right_index.MatchCount(rr);
          }
          offsets[c] = total;
        });
    size_t total = PrefixOffsets(&offsets);
    std::vector<Value> out_data(total * out_arity);
    const Value* ldata = left.rel().data().data();
    const Value* rdata = right.rel().data().data();
    size_t rarity = right.arity();
    ForEachMorsel(
        nl, runtime, "morsel.join", [&](size_t c, size_t begin, size_t end) {
          Value* dst = out_data.data() + offsets[c] * out_arity;
          for (size_t lr = begin; lr < end; ++lr) {
            uint32_t rr = first[lr];
            if (rr == RowIndex::kNone) continue;
            const Value* lrow = ldata + lr * larity;
            for (; rr != RowIndex::kNone; rr = right_index.Next(rr)) {
              for (size_t i = 0; i < larity; ++i) *dst++ = lrow[i];
              const Value* rrow = rdata + static_cast<size_t>(rr) * rarity;
              for (int col : right_extra) *dst++ = rrow[col];
            }
          }
        });
    if (morsels != nullptr) *morsels += chunks;
    return NamedRelation{std::move(out_attrs),
                         Relation(out_arity, std::move(out_data))};
  }

  NamedRelation out{out_attrs};
  ValueVec row(out_arity);
  uint64_t emitted = 0;
  for (size_t lr = 0; lr < left.size(); ++lr) {
    for (uint32_t rr = right_index.Find(left.rel(), lr, lcols);
         rr != RowIndex::kNone; rr = right_index.Next(rr)) {
      for (size_t i = 0; i < larity; ++i) row[i] = left.rel().At(lr, i);
      for (size_t i = 0; i < right_extra.size(); ++i) {
        row[larity + i] = right.rel().At(rr, right_extra[i]);
      }
      if (!options.post_filter.Eval(row)) continue;
      if (options.max_output_rows != 0 && emitted >= options.max_output_rows) {
        return Status::ResourceExhausted(internal::StrCat(
            "NaturalJoin output exceeds limit of ", options.max_output_rows,
            " rows"));
      }
      out.rel().Add(row);
      ++emitted;
    }
  }
  return out;
}

NamedRelation Semijoin(const NamedRelation& left, const NamedRelation& right,
                       const RuntimeOptions& runtime, size_t* morsels) {
  auto common = CommonColumns(left, right);
  std::vector<int> lcols, rcols;
  for (auto [lc, rc] : common) {
    lcols.push_back(lc);
    rcols.push_back(rc);
  }
  if (common.empty()) {
    // Degenerate semijoin: keep left iff right is nonempty (zero-copy).
    return right.empty() ? NamedRelation{left.attrs()} : left;
  }
  RowIndex index(right.rel(), std::move(rcols));
  // Probe pass: each chunk lists its surviving left rows.
  size_t nl = left.size();
  std::vector<std::vector<uint32_t>> keep(MorselSlots(nl, runtime));
  size_t chunks = ForEachMorsel(
      nl, runtime, "morsel.semijoin", [&](size_t c, size_t begin, size_t end) {
        std::vector<uint32_t>& kept = keep[c];
        kept.reserve(end - begin);
        for (size_t lr = begin; lr < end; ++lr) {
          if (index.Contains(left.rel(), lr, lcols)) {
            kept.push_back(static_cast<uint32_t>(lr));
          }
        }
      });
  if (morsels != nullptr) *morsels += chunks;
  std::vector<size_t> offsets(keep.size());
  for (size_t c = 0; c < keep.size(); ++c) offsets[c] = keep[c].size();
  size_t total = PrefixOffsets(&offsets);
  // Every row survived: the result IS left — share its storage.
  if (total == nl) return left;
  // Emit survivors into one exactly-sized flat buffer, each chunk into its
  // own slice.
  size_t arity = left.arity();
  std::vector<Value> out_data(total * arity);
  const Value* src = left.rel().data().data();
  ForEachMorsel(
      nl, runtime, "morsel.semijoin", [&](size_t c, size_t, size_t) {
        Value* dst = out_data.data() + offsets[c] * arity;
        for (uint32_t lr : keep[c]) {
          const Value* row = src + static_cast<size_t>(lr) * arity;
          for (size_t i = 0; i < arity; ++i) *dst++ = row[i];
        }
      });
  return NamedRelation{left.attrs(), Relation(arity, std::move(out_data))};
}

namespace {
// Aligns `right` rows to `left`'s attribute order; both must have the same
// attribute set.
Relation AlignTo(const NamedRelation& left, const NamedRelation& right) {
  PQ_CHECK(left.attrs().size() == right.attrs().size(),
           "set operation requires identical attribute sets");
  std::vector<int> perm(left.attrs().size());
  for (size_t i = 0; i < left.attrs().size(); ++i) {
    int c = right.ColumnOf(left.attrs()[i]);
    PQ_CHECK(c >= 0, "set operation requires identical attribute sets");
    perm[i] = c;
  }
  Relation out(left.arity());
  ValueVec row(left.arity());
  for (size_t r = 0; r < right.size(); ++r) {
    for (size_t i = 0; i < perm.size(); ++i) row[i] = right.rel().At(r, perm[i]);
    out.Add(row);
  }
  return out;
}
}  // namespace

NamedRelation UnionSet(const NamedRelation& left, const NamedRelation& right) {
  if (left.arity() == 0) {
    // Zero-ary: nonempty iff either side nonempty.
    return (left.empty() && right.empty()) ? BooleanFalse() : BooleanTrue();
  }
  Relation aligned = AlignTo(left, right);
  RowHashSet merged(left.arity());
  merged.Reserve(left.size() + aligned.size());
  for (size_t r = 0; r < left.size(); ++r) merged.Insert(left.rel().Row(r));
  for (size_t r = 0; r < aligned.size(); ++r) merged.Insert(aligned.Row(r));
  return NamedRelation{left.attrs(), merged.TakeRelation()};
}

NamedRelation Difference(const NamedRelation& left, const NamedRelation& right) {
  Relation aligned = AlignTo(left, right);
  if (left.arity() == 0) {
    if (!left.empty() && aligned.empty()) return BooleanTrue();
    return BooleanFalse();
  }
  RowIndex index(aligned, AllColumns(aligned));
  std::vector<int> all = AllColumns(left.rel());
  RowHashSet kept(left.arity());
  kept.Reserve(left.size());
  for (size_t r = 0; r < left.size(); ++r) {
    if (!index.Contains(left.rel(), r, all)) kept.Insert(left.rel().Row(r));
  }
  return NamedRelation{left.attrs(), kept.TakeRelation()};
}

NamedRelation Intersect(const NamedRelation& left, const NamedRelation& right) {
  Relation aligned = AlignTo(left, right);
  if (left.arity() == 0) {
    if (!left.empty() && !aligned.empty()) return BooleanTrue();
    return BooleanFalse();
  }
  RowIndex index(aligned, AllColumns(aligned));
  std::vector<int> all = AllColumns(left.rel());
  RowHashSet kept(left.arity());
  kept.Reserve(std::min(left.size(), aligned.size()));
  for (size_t r = 0; r < left.size(); ++r) {
    if (index.Contains(left.rel(), r, all)) kept.Insert(left.rel().Row(r));
  }
  return NamedRelation{left.attrs(), kept.TakeRelation()};
}

Result<NamedRelation> CrossProduct(const NamedRelation& left,
                                   const NamedRelation& right,
                                   uint64_t max_output_rows) {
  for (AttrId a : right.attrs()) {
    PQ_CHECK(!left.HasAttr(a), "CrossProduct requires disjoint attributes");
  }
  JoinOptions options;
  options.max_output_rows = max_output_rows;
  return NaturalJoin(left, right, options);
}

Result<NamedRelation> DomainPower(const std::vector<AttrId>& attrs,
                                  const std::vector<Value>& domain,
                                  uint64_t max_rows) {
  uint64_t rows = 1;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (domain.empty() || rows > max_rows / domain.size() + 1) {
      rows = max_rows + 1;
      break;
    }
    rows *= domain.size();
  }
  if (max_rows != 0 && rows > max_rows) {
    return Status::ResourceExhausted(internal::StrCat(
        "DomainPower of |D|=", domain.size(), " over ", attrs.size(),
        " attributes exceeds limit of ", max_rows, " rows"));
  }
  NamedRelation out{attrs};
  if (attrs.empty()) {
    out.rel().AddEmptyRow();
    return out;
  }
  if (domain.empty()) return out;
  ValueVec row(attrs.size(), domain[0]);
  std::vector<size_t> idx(attrs.size(), 0);
  for (;;) {
    out.rel().Add(row);
    // Odometer increment.
    size_t pos = attrs.size();
    while (pos > 0) {
      --pos;
      if (++idx[pos] < domain.size()) {
        row[pos] = domain[idx[pos]];
        break;
      }
      idx[pos] = 0;
      row[pos] = domain[0];
      if (pos == 0) return out;
    }
  }
}

Result<NamedRelation> Complement(const NamedRelation& in,
                                 const std::vector<Value>& domain,
                                 uint64_t max_rows) {
  PQ_ASSIGN_OR_RETURN(NamedRelation all, DomainPower(in.attrs(), domain,
                                                     max_rows));
  return Difference(all, in);
}

}  // namespace paraquery
