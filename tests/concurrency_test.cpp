// Concurrent use of one Engine: threads running mixed routes on a shared
// const Engine get the answers of solo runs, and each query keeps its own
// stats, abort context and memory budget. Run under ThreadSanitizer, this
// file is the data-race check for Engine::Run.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "workload/generators.hpp"

namespace paraquery {
namespace {

// One query per route: Yannakakis, Theorem 2, the Theorem 3 closure route,
// the cyclic decomposition, UCQ, counting, Datalog and the active-domain
// algebra.
const char* const kMixedQueries[] = {
    "ans(x, z) :- E(x, y), E(y, z).",
    "ans(x, z) :- E(x, y), E(y, z), x != z.",
    "ans(x, z) :- E(x, y), E(y, z), x < z.",
    "ans(x, y, z) :- E(x, y), E(y, z), E(z, x).",
    "ans(x) := exists y . (E(x, y) or E(y, x)).",
    "COUNT(x) :- E(x, y), E(y, z).",
    "tc(x, y) :- E(x, y).\ntc(x, y) :- E(x, z), tc(z, y).\n",
    "ans(x) := forall y . (not E(x, y) or E(y, x)).",
};
constexpr size_t kNumQueries = std::size(kMixedQueries);

TEST(ConcurrentRunTest, MixedRoutesMatchSoloRuns) {
  Database db = GraphDatabase(GnpRandom(24, 0.15, 3));
  for (size_t width : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(width);
    EngineOptions options;
    options.threads = width;
    options.trace = width == 2;  // per-query tracers under concurrency too
    const Engine engine(db, options);
    std::vector<Relation> solo;
    for (const char* text : kMixedQueries) {
      auto r = engine.RunText(text);
      ASSERT_TRUE(r.ok()) << text << ": " << r.status();
      solo.push_back(std::move(r).value());
    }
    std::mutex failures_mutex;
    std::vector<std::string> failures;
    std::vector<std::thread> clients;
    for (size_t t = 0; t < 4; ++t) {
      clients.emplace_back([&, t] {
        for (size_t round = 0; round < 3; ++round) {
          for (size_t i = 0; i < kNumQueries; ++i) {
            const size_t k = (i + t + round) % kNumQueries;
            auto r = engine.RunText(kMixedQueries[k]);
            (void)engine.last_stats();
            if (!r.ok() || !(r.value().data() == solo[k].data())) {
              std::lock_guard<std::mutex> lock(failures_mutex);
              failures.push_back(
                  std::string(kMixedQueries[k]) + ": " +
                  (r.ok() ? "answer differs" : r.status().ToString()));
            }
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(failures.size(), 0u)
        << "first failure: " << (failures.empty() ? "" : failures.front());
    if (options.trace) {
      ASSERT_NE(engine.tracer(), nullptr);
      EXPECT_GT(engine.tracer()->event_count(), 0u);
    }
  }
}

TEST(ConcurrentRunTest, MemoryBudgetIsPerQuery) {
  // Heavy: a 2-atom join whose intermediate far exceeds the 4 MiB budget.
  // Light: a scan of a 3-row relation, far under it.
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (Value i = 0; i < 30'000; ++i) db.relation(e).Add({i % 1000, i % 997});
  RelId l = db.AddRelation("L", 1).ValueOrDie();
  for (Value i = 0; i < 3; ++i) db.relation(l).Add({i});
  EngineOptions options;
  options.limits.max_bytes = 4 << 20;
  const Engine engine(db, options);
  const char* heavy = "ans(x, z) :- E(x, y), E(y, z).";
  const char* light = "ans(x) :- L(x).";
  ASSERT_EQ(engine.RunText(heavy).status().code(),
            StatusCode::kResourceExhausted);

  std::atomic<bool> heavy_done{false};
  std::atomic<int> heavy_passed{0};
  std::atomic<int> light_failed{0};
  std::atomic<int> light_runs{0};
  std::thread light_client([&] {
    while (!heavy_done.load()) {
      if (!engine.RunText(light).ok()) light_failed.fetch_add(1);
      light_runs.fetch_add(1);
    }
  });
  for (int i = 0; i < 20; ++i) {
    auto r = engine.RunText(heavy);
    if (r.status().code() != StatusCode::kResourceExhausted) {
      heavy_passed.fetch_add(1);
    }
  }
  heavy_done.store(true);
  light_client.join();
  EXPECT_EQ(heavy_passed.load(), 0);
  EXPECT_EQ(light_failed.load(), 0);
  EXPECT_GT(light_runs.load(), 0);
}

}  // namespace
}  // namespace paraquery
