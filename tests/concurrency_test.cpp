// Concurrent use of one Engine: threads running mixed routes on a shared
// const Engine get the answers of solo runs, and each query keeps its own
// stats, abort context and memory budget, while one caller token still
// cancels them all. Run under ThreadSanitizer, this
// file is the data-race check for Engine::Run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

TEST(ConcurrentRunTest, SharedTokenWithByteBudget) {
  // Four threads share one caller token while `limits` arm a byte budget:
  // each Run arms a context of its own that polls the token, so the heavy
  // query's budget never reaches the light ones and nothing writes to the
  // shared token (under TSan, the data-race check for the arming path).
  Database db;
  RelId e = db.AddRelation("E", 2).ValueOrDie();
  for (Value i = 0; i < 30'000; ++i) db.relation(e).Add({i % 1000, i % 997});
  RelId l = db.AddRelation("L", 1).ValueOrDie();
  for (Value i = 0; i < 3; ++i) db.relation(l).Add({i});
  QueryContext token;
  EngineOptions options;
  options.query_ctx = &token;
  options.limits.max_bytes = 4 << 20;
  const Engine engine(db, options);
  const char* heavy = "ans(x, z) :- E(x, y), E(y, z).";
  const char* light = "ans(x) :- L(x).";
  std::atomic<int> heavy_passed{0};
  std::atomic<int> light_failed{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        if (t == 0) {
          if (engine.RunText(heavy).status().code() !=
              StatusCode::kResourceExhausted) {
            heavy_passed.fetch_add(1);
          }
        } else {
          auto r = engine.RunText(light);
          if (!r.ok() || r.value().size() != 3) light_failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(heavy_passed.load(), 0);
  EXPECT_EQ(light_failed.load(), 0);
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_EQ(token.memory(), nullptr);  // the engine never armed the token
}

TEST(ConcurrentRunTest, CancelStopsEveryInFlightRun) {
  // Four threads loop a heavy query on one engine whose caller token is
  // cancelled mid-query. The deadline (never reached) makes every Run arm
  // its own context, which must still see the caller's Cancel().
  Database db = GraphDatabase(CompleteGraph(50));
  const char* heavy = "ans(x, w) :- E(x, y), E(y, z), E(z, w).";
  QueryContext token;
  EngineOptions options;
  options.threads = 2;
  options.query_ctx = &token;
  options.limits.max_wall_ms = 600'000;
  const Engine engine(db, options);
  auto solo = engine.RunText(heavy);
  ASSERT_TRUE(solo.ok()) << solo.status();

  std::atomic<bool> cancel_issued{false};
  std::atomic<int> started{0};
  std::atomic<int> stopped_in_flight{0};
  std::atomic<int> wrong_status{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      started.fetch_add(1);
      for (;;) {
        const bool before_cancel = !cancel_issued.load();
        auto r = engine.RunText(heavy);
        if (r.ok()) {
          if (!(r.value().data() == solo.value().data())) {
            wrong_status.fetch_add(1);
          }
          continue;
        }
        if (r.status().code() != StatusCode::kCancelled) {
          wrong_status.fetch_add(1);
        } else if (before_cancel) {
          stopped_in_flight.fetch_add(1);
        }
        return;
      }
    });
  }
  while (started.load() < 4) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cancel_issued.store(true);
  token.Cancel();
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(wrong_status.load(), 0);
  EXPECT_GT(stopped_in_flight.load(), 0);

  // Cancellation is sticky until the owner resets the token; then the same
  // engine answers as before.
  EXPECT_EQ(engine.RunText(heavy).status().code(), StatusCode::kCancelled);
  token.Reset();
  auto again = engine.RunText(heavy);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value().data(), solo.value().data());
}

}  // namespace
}  // namespace paraquery
