// Tests for the parallel runtime (src/runtime/): scheduler mechanics
// (nesting, cancellation, error capture, clean shutdown), the row kernels'
// byte identity across widths and morsel sizes, and the headline
// guarantee — engine results at N threads are byte-identical to 1 thread
// across randomized CQ/UCQ/Datalog workloads, with resource limits still
// enforced under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "core/engine.hpp"
#include "plan/executor.hpp"
#include "query/parser.hpp"
#include "relational/ops.hpp"
#include "relational/row_index.hpp"
#include "runtime/scheduler.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// ---------------------------------------------------------------------------
// Scheduler mechanics.
// ---------------------------------------------------------------------------

TEST(TaskSchedulerTest, ParallelChunksCoversEveryIndexOnce) {
  TaskScheduler scheduler(4);
  std::vector<std::atomic<int>> hits(1000);
  RuntimeOptions runtime{&scheduler, 16};
  size_t chunks = ParallelChunks(runtime.scheduler, hits.size(), 16,
                                 [&](size_t, size_t begin, size_t end) {
                                   for (size_t i = begin; i < end; ++i) {
                                     hits[i].fetch_add(1);
                                   }
                                 });
  EXPECT_EQ(chunks, ChunkCount(hits.size(), 16));
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskSchedulerTest, NestedGroupsComplete) {
  TaskScheduler scheduler(4);
  std::atomic<int> total{0};
  TaskGroup outer(&scheduler);
  for (int i = 0; i < 8; ++i) {
    outer.Spawn([&scheduler, &total] {
      TaskGroup inner(&scheduler);
      for (int j = 0; j < 8; ++j) {
        inner.Spawn([&total] { total.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(total.load(), 64);
}

TEST(TaskSchedulerTest, RecordErrorKeepsFirstAndCancels) {
  TaskScheduler scheduler(2);
  TaskGroup group(&scheduler);
  group.RecordError(Status::ResourceExhausted("first"));
  group.RecordError(Status::Internal("second"));
  EXPECT_TRUE(group.cancelled());
  // Cancelled tasks are dropped without running.
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    group.Spawn([&ran] { ran.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(group.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(group.status().message(), "first");
}

TEST(TaskSchedulerTest, CleanShutdownAfterErrors) {
  // Pools torn down right after error-path work must not hang or leak
  // wakeups: exercise construct → fail → destruct repeatedly.
  for (int round = 0; round < 10; ++round) {
    TaskScheduler scheduler(4);
    TaskGroup group(&scheduler);
    for (int i = 0; i < 32; ++i) {
      group.Spawn([&group, i] {
        if (i % 3 == 0) {
          group.RecordError(Status::Internal("task failed"));
        }
      });
    }
    group.Wait();
    EXPECT_FALSE(group.status().ok());
  }  // scheduler destructor joins the workers every round
}

TEST(TaskSchedulerTest, NullAndWidthOneRunInline) {
  int ran = 0;
  TaskGroup null_group(nullptr);
  null_group.Spawn([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // already ran: Spawn is inline without a scheduler
  TaskScheduler one(1);
  TaskGroup one_group(&one);
  one_group.Spawn([&ran] { ++ran; });
  EXPECT_EQ(ran, 2);
}

// ---------------------------------------------------------------------------
// Row kernels: one chunk vs morsels.
// ---------------------------------------------------------------------------

NamedRelation RandomRelation(std::vector<AttrId> attrs, size_t rows,
                             Value domain, uint64_t seed) {
  Rng rng(seed);
  NamedRelation out{std::move(attrs)};
  ValueVec row(out.arity());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < out.arity(); ++c) {
      row[c] = rng.Range(0, domain - 1);
    }
    out.rel().Add(row);
  }
  return out;
}

// Byte-identical: same attrs, same rows in the same order.
void ExpectIdentical(const NamedRelation& a, const NamedRelation& b) {
  ASSERT_EQ(a.attrs(), b.attrs());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.rel().data(), b.rel().data());
}

// Runs `op(runtime, &morsels)` under the default runtime and under `wide`.
// Both outputs must be byte-identical. The default runtime never splits.
// Under `wide` the kernel reports ChunkCount(split_rows, grain) morsels if
// it splits `split_rows` rows, else 0. Returns the wide output.
template <typename Op>
NamedRelation ExpectSameAtBothWidths(const Op& op, const RuntimeOptions& wide,
                                     size_t split_rows, bool splits) {
  size_t narrow_morsels = 0, wide_morsels = 0;
  NamedRelation narrow = op(RuntimeOptions{}, &narrow_morsels);
  NamedRelation out = op(wide, &wide_morsels);
  ExpectIdentical(narrow, out);
  EXPECT_EQ(narrow_morsels, 0u);
  EXPECT_EQ(wide_morsels, splits ? ChunkCount(split_rows, wide.morsel_rows)
                                 : size_t{0});
  return out;
}

TEST(ParallelOpsTest, OperatorsMatchSequentialKernels) {
  TaskScheduler scheduler(4);
  for (size_t grain : {size_t{1}, size_t{64}, size_t{4096}}) {
    RuntimeOptions wide{&scheduler, grain};
    // Sizes on both sides of the ShouldMorsel boundary (two morsels).
    for (size_t rows : {size_t{0}, size_t{1}, 2 * grain - 1, 2 * grain}) {
      SCOPED_TRACE(testing::Message() << "grain=" << grain
                                      << " rows=" << rows);
      const bool splits = rows >= 2 * grain;
      ASSERT_EQ(wide.ShouldMorsel(rows), splits);
      NamedRelation left = RandomRelation({0, 1}, rows, 40, rows + grain);
      // 25 rows over 40 values: about half the left rows find a partner.
      NamedRelation right = RandomRelation({1, 2}, 25, 40, rows + 7);

      Predicate pred;
      pred.Add(Constraint::NeqCols(0, 1));
      pred.Add(Constraint::LtConst(0, 30));
      ExpectSameAtBothWidths(
          [&](const RuntimeOptions& rt, size_t* m) {
            return Select(left, pred, rt, m);
          },
          wide, rows, splits);
      for (bool dedup : {true, false}) {
        ExpectSameAtBothWidths(
            [&](const RuntimeOptions& rt, size_t* m) {
              return Project(left, {1}, dedup, rt, m);
            },
            wide, rows, splits);
        ExpectSameAtBothWidths(
            [&](const RuntimeOptions& rt, size_t* m) {
              return Project(left, {1, 0}, dedup, rt, m);
            },
            wide, rows, splits);
      }
      RowIndex idx(right.rel(), JoinKeyColumns(left, right));
      ExpectSameAtBothWidths(
          [&](const RuntimeOptions& rt, size_t* m) {
            return NaturalJoin(left, right, idx, {}, rt, m).ValueOrDie();
          },
          wide, rows, splits);
      // A filtered join is one chunk at any width.
      JoinOptions filtered;
      filtered.post_filter.Add(Constraint::NeqCols(0, 2));
      ExpectSameAtBothWidths(
          [&](const RuntimeOptions& rt, size_t* m) {
            return NaturalJoin(left, right, filtered, rt, m).ValueOrDie();
          },
          wide, rows, /*splits=*/false);
      ExpectSameAtBothWidths(
          [&](const RuntimeOptions& rt, size_t* m) {
            return Semijoin(left, right, rt, m);
          },
          wide, rows, splits);

      // Zero-copy returns, at both widths. Identity select, no-op project
      // and the degenerate semijoin do no row work; the all-survivors
      // semijoin probes (in morsels when it splits) and then shares left.
      for (const RuntimeOptions& rt : {RuntimeOptions{}, wide}) {
        size_t m = 0;
        EXPECT_TRUE(
            Select(left, Predicate{}, rt, &m).rel().SharesStorageWith(
                left.rel()));
        EXPECT_TRUE(Project(left, {0, 1}, /*dedup=*/false, rt, &m)
                        .rel()
                        .SharesStorageWith(left.rel()));
        EXPECT_TRUE(Semijoin(left, RandomRelation({5}, 1, 40, 1), rt, &m)
                        .rel()
                        .SharesStorageWith(left.rel()));
        EXPECT_EQ(m, 0u);
        NamedRelation all =
            Semijoin(left, left.WithAttrs({0, 1}), rt, &m);
        EXPECT_TRUE(all.rel().SharesStorageWith(left.rel()));
        EXPECT_EQ(m, rt.scheduler != nullptr && splits
                         ? ChunkCount(rows, grain)
                         : size_t{0});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: engine results at N threads == 1 thread, byte for byte.
// ---------------------------------------------------------------------------

Engine MakeEngine(const Database& db, size_t threads) {
  EngineOptions options;
  options.threads = threads;
  options.morsel_rows = 32;  // small morsels so tiny test inputs parallelize
  return Engine(db, options);
}

void ExpectSameRelation(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.arity(), b.arity());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.data(), b.data());
}

TEST(RuntimeDeterminismTest, RandomizedCqWorkloads) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Database db = RandomBinaryDatabase(3, 120, 25, seed);
    for (int neq = 0; neq <= 2; ++neq) {
      ConjunctiveQuery q = RandomAcyclicNeqQuery(3, 4, neq, seed * 13 + neq);
      auto sequential = MakeEngine(db, 1).Run(q);
      auto parallel = MakeEngine(db, 4).Run(q);
      ASSERT_TRUE(sequential.ok()) << sequential.status();
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectSameRelation(sequential.value(), parallel.value());
    }
  }
}

TEST(RuntimeDeterminismTest, CyclicCqWorkloads) {
  Database db = RandomBinaryDatabase(1, 300, 18, 7);
  const char* queries[] = {
      "ans(x) :- R0(x,y), R0(y,z), R0(z,x).",
      "ans(x, w) :- R0(x,y), R0(y,z), R0(z,w), R0(w,x), x != z.",
      "p() :- R0(x,y), R0(y,z), R0(z,x), x != y, y != z.",
  };
  for (const char* text : queries) {
    auto q = ParseConjunctive(text).ValueOrDie();
    auto sequential = MakeEngine(db, 1).Run(q);
    auto parallel = MakeEngine(db, 4).Run(q);
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameRelation(sequential.value(), parallel.value());
  }
}

TEST(RuntimeDeterminismTest, UcqWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database db = RandomBinaryDatabase(2, 150, 20, seed);
    const char* queries[] = {
        "ans(x) := exists y . (R0(x, y) or R1(y, x) or R0(y, x)).",
        "ans(x, y) := R0(x, y) or (exists z . (R0(x, z) and R1(z, y))).",
    };
    for (const char* text : queries) {
      auto sequential = MakeEngine(db, 1).RunText(text);
      auto parallel = MakeEngine(db, 4).RunText(text);
      ASSERT_TRUE(sequential.ok()) << sequential.status();
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      ExpectSameRelation(sequential.value(), parallel.value());
    }
  }
}

TEST(RuntimeDeterminismTest, DatalogWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Database db = RandomBinaryDatabase(1, 90, 30, seed);
    // TransitiveClosureProgram expects the edge relation to be named E.
    Database edges;
    RelId e = edges.AddRelation("E", 2).ValueOrDie();
    const Relation& r0 = db.relation(0);
    for (size_t r = 0; r < r0.size(); ++r) edges.relation(e).Add(r0.Row(r));

    auto sequential = MakeEngine(edges, 1).Run(TransitiveClosureProgram());
    auto parallel = MakeEngine(edges, 4).Run(TransitiveClosureProgram());
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameRelation(sequential.value(), parallel.value());

    // A multi-rule program whose per-round firings actually overlap.
    const char* program =
        "p(x, y) :- E(x, y).\n"
        "q(x, y) :- E(y, x).\n"
        "p(x, y) :- p(x, z), q(y, z).\n"
        "q(x, y) :- q(x, z), p(z, y).\n"
        "@goal p.\n";
    auto seq2 = MakeEngine(edges, 1).RunText(program);
    auto par2 = MakeEngine(edges, 4).RunText(program);
    ASSERT_TRUE(seq2.ok()) << seq2.status();
    ASSERT_TRUE(par2.ok()) << par2.status();
    ExpectSameRelation(seq2.value(), par2.value());
  }
}

TEST(RuntimeDeterminismTest, ParallelRunsReportRuntimeStats) {
  Database db = RandomBinaryDatabase(1, 500, 10, 3);
  Engine engine = MakeEngine(db, 4);
  auto q = ParseConjunctive("ans(x, z) :- R0(x, y), R0(y, z).").ValueOrDie();
  ASSERT_TRUE(engine.Run(q).ok());
  EXPECT_GT(engine.last_stats().plan.morsels, 0u);
  EXPECT_GT(engine.last_stats().plan.parallel_tasks, 0u);
  EXPECT_GT(engine.last_stats().plan.wall_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Limits under concurrency; shutdown on error paths.
// ---------------------------------------------------------------------------

TEST(RuntimeLimitsTest, StepLimitFiresUnderConcurrency) {
  Database db = GraphDatabase(CompleteGraph(18));
  EngineOptions options;
  options.threads = 4;
  options.morsel_rows = 32;
  options.limits.max_steps = 100;
  Engine engine(db, options);
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kResourceExhausted);
}

TEST(RuntimeLimitsTest, DatalogRowLimitFiresUnderConcurrency) {
  Database db = GraphDatabase(CompleteGraph(12));
  EngineOptions options;
  options.threads = 4;
  options.limits.max_rows = 20;
  Engine engine(db, options);
  auto result = engine.RunText(
      "tc(x, y) :- E(x, y).\n"
      "tc(x, y) :- E(x, z), tc(z, y).\n");
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// The speculative-limits accounting fix: the right subtree of a join runs
// speculatively under a scheduler before the left side's emptiness is
// known, but its rows are charged TENTATIVELY and dropped when the
// short-circuit fires — so a query that passes limits at threads=1 never
// fails them at threads=N.
TEST(RuntimeLimitsTest, SpeculativeWorkIsNotChargedOnShortCircuit) {
  // Plan: HashJoin( Scan(empty), HashJoin(Scan(B1), Scan(B2)) ).
  // Sequentially the big right join never runs (left is empty) and the
  // execution produces 0 rows; speculatively it produces ~400 rows, far
  // past max_steps = 50.
  NamedRelation empty({0});
  NamedRelation b1({1, 2});
  NamedRelation b2({2, 3});
  for (Value v = 0; v < 20; ++v) {
    for (Value w = 0; w < 20; ++w) b1.rel().Add({v, w});
    b2.rel().Add({v, v});
  }
  // The Project above the join accounts AFTER the short-circuit: before the
  // fix it saw the speculative 400 rows in the shared budget and errored.
  auto make_plan = [&] {
    return MakeProject(
        MakeHashJoin(
            MakeScan(0, {0}, "empty", 0.0),
            MakeHashJoin(MakeScan(1, {1, 2}, "B1", 400.0),
                         MakeScan(2, {2, 3}, "B2", 20.0))),
        {0}, /*dedup=*/false);
  };
  std::vector<const NamedRelation*> inputs = {&empty, &b1, &b2};
  ResourceLimits limits;
  limits.max_steps = 50;

  // threads = 1: the short-circuit skips the right join entirely.
  {
    PlanNodePtr plan = make_plan();
    ExecContext ctx{inputs, limits, nullptr, RuntimeOptions{}};
    auto result = ExecutePlan(*plan, ctx);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result.value().empty());
  }
  // threads = 4: the right join runs speculatively; its ~400 rows must be
  // rolled back, not charged (this failed before the accounting fix).
  TaskScheduler scheduler(4);
  for (int rep = 0; rep < 10; ++rep) {
    PlanNodePtr plan = make_plan();
    RuntimeOptions runtime{&scheduler, /*morsel_rows=*/64};
    PlanStats stats;
    ExecContext ctx{inputs, limits, &stats, runtime};
    auto result = ExecutePlan(*plan, ctx);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result.value().empty());
  }
}

TEST(RuntimeLimitsTest, CommittedSpeculativeWorkStillCounts) {
  // Same shape but the left side is NONEMPTY: the speculative subtree's
  // rows must be committed once consumed, and the limit must fire at every
  // width (the fix must not turn limits off).
  NamedRelation left({0, 1});
  left.rel().Add({0, 0});
  NamedRelation b1({1, 2});
  NamedRelation b2({2, 3});
  for (Value v = 0; v < 20; ++v) {
    for (Value w = 0; w < 20; ++w) b1.rel().Add({v, w});
    b2.rel().Add({v, v});
  }
  auto make_plan = [&] {
    return MakeHashJoin(
        MakeScan(0, {0, 1}, "L", 1.0),
        MakeHashJoin(MakeScan(1, {1, 2}, "B1", 400.0),
                     MakeScan(2, {2, 3}, "B2", 20.0)));
  };
  std::vector<const NamedRelation*> inputs = {&left, &b1, &b2};
  ResourceLimits limits;
  limits.max_steps = 50;
  {
    PlanNodePtr plan = make_plan();
    ExecContext ctx{inputs, limits, nullptr, RuntimeOptions{}};
    EXPECT_EQ(ExecutePlan(*plan, ctx).status().code(),
              StatusCode::kResourceExhausted);
  }
  TaskScheduler scheduler(4);
  {
    PlanNodePtr plan = make_plan();
    RuntimeOptions runtime{&scheduler, /*morsel_rows=*/64};
    ExecContext ctx{inputs, limits, nullptr, runtime};
    EXPECT_EQ(ExecutePlan(*plan, ctx).status().code(),
              StatusCode::kResourceExhausted);
  }
}

// Engine-level acceptance shape: a query whose plan contains an empty-left
// join with an expensive sibling passes tight limits at threads=1, so it
// must pass at threads=4 as well.
TEST(RuntimeLimitsTest, PassingQueryPassesAtAnyWidth) {
  Database db;
  RelId a = db.AddRelation("A", 2).ValueOrDie();
  RelId big = db.AddRelation("BIG", 2).ValueOrDie();
  (void)a;  // A stays empty
  for (Value v = 0; v < 40; ++v) {
    for (Value w = 0; w < 10; ++w) db.relation(big).Add({v, w});
  }
  // Cyclic-planner route (the order comparison forces it; ≠ alone would
  // route to color coding, which legitimately joins the BIG atoms before
  // consulting A): greedy order starts from the smallest (empty) atom, so
  // sequential execution is all short-circuit.
  auto q = ParseConjunctive(
               "ans(x) :- A(x, y), BIG(y, z), BIG(z, w), x < w.")
               .ValueOrDie();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.threads = threads;
    options.morsel_rows = 16;
    options.limits.max_steps = 30;
    Engine engine(db, options);
    auto result = engine.Run(q);
    ASSERT_TRUE(result.ok())
        << "threads=" << threads << ": " << result.status();
    EXPECT_TRUE(result.value().empty());
  }
}

// Shared-DAG stress for the speculative accounting: the Theorem 2 eval DAG
// shares its pass-1 nodes between the committed left spine and speculative
// right subtrees, so a speculative budget error must never be cached into a
// node a committed consumer will read (the executor recomputes instead).
// Property: ANY max_steps that passes at threads=1 passes at threads=4.
TEST(RuntimeLimitsTest, SharedNodeSpeculationCannotPoisonLimits) {
  Database db = GraphDatabase(GnpRandom(60, 0.08, 9));
  auto q = ParseConjunctive(
               "ans(a, d) :- E(a, b), E(b, c), E(c, d), a != c, b != d.")
               .ValueOrDie();
  for (uint64_t steps : {uint64_t{30}, uint64_t{100}, uint64_t{400},
                         uint64_t{2000}, uint64_t{20000}}) {
    EngineOptions options;
    options.threads = 1;
    options.limits.max_steps = steps;
    Engine sequential(db, options);
    if (!sequential.Run(q).ok()) continue;  // fails sequentially too: fine
    options.threads = 4;
    options.morsel_rows = 16;
    Engine parallel(db, options);
    for (int rep = 0; rep < 5; ++rep) {
      auto result = parallel.Run(q);
      EXPECT_TRUE(result.ok())
          << "max_steps=" << steps << " rep=" << rep << ": "
          << result.status();
    }
  }
}

TEST(RuntimeLimitsTest, EngineSurvivesRepeatedErrorRuns) {
  // Error paths must leave the pool reusable and tear down cleanly when the
  // engine dies (the scheduler is owned by the engine).
  Database db = GraphDatabase(CompleteGraph(18));
  EngineOptions options;
  options.threads = 4;
  options.morsel_rows = 32;
  options.limits.max_steps = 50;
  auto q = ParseConjunctive("ans(a, d) :- E(a,b), E(b,c), E(c,d).")
               .ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    Engine engine(db, options);
    EXPECT_EQ(engine.Run(q).status().code(), StatusCode::kResourceExhausted);
    engine.options().limits.max_steps = 0;
    EXPECT_TRUE(engine.Run(q).ok());  // the same pool keeps working
  }
}

}  // namespace
}  // namespace paraquery
