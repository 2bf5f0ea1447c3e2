// perfbench: the repository benchmark. One client, closed loop: it sends
// the next query text to Engine::RunText only after the previous answer is
// back, over a seeded workload (see workloads.hpp and ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--digests FILE] [--trace-out FILE] [--write-digests]
//
// A run does a fixed amount of work: S / 10 times the workload's nominal
// query count, after an untimed warm-up. Set-up (generation, Engine
// construction, warm-up) is repeated and its median reported. Every answer
// is checked against a reference engine configuration (width 1, plan cache,
// vectorize and wcoj off) outside the timed phase, and for the default seed
// also against the digests committed in FILE.
//
// --trace 0 prints the end-to-end metrics, --trace 1 a second,
// instrumented pass and the per-layer metrics. The last line of stdout is
// one JSON object {correct, attempted, failed, metrics}; the human-readable
// report (quartiles, per-route latency, host-drift probe) goes to stderr.
// Exit code 0 iff every answer was correct.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/engine.hpp"
#include "hypergraph/hypertree.hpp"
#include "hypergraph/join_tree.hpp"
#include "plan/planner.hpp"
#include "query/comparison_closure.hpp"
#include "query/parser.hpp"
#include "relational/storage_cache_stats.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using paraquery::ConjunctiveQuery;
using paraquery::Engine;
using paraquery::EngineOptions;
using paraquery::EngineStats;
using paraquery::PlanCacheStats;
using paraquery::Relation;
using paraquery::Timer;

constexpr uint64_t kDefaultSeed = 1;
constexpr size_t kCommittedDigests = 200;  // per workload, default seed
constexpr int kSetups = 5;                 // set-up repeats per run

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  std::string digests;
  std::string trace_out;
  bool write_digests = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-digests") {
      a->write_digests = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atoi(v);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--digests") {
      a->digests = v;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->seconds <= 3600;
}

// FNV-1a over arity, row count and the value bytes: two answers digest
// equal iff they are (with overwhelming probability) byte-identical.
uint64_t Digest(const Relation& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  const uint64_t shape[2] = {r.arity(), r.size()};
  mix(shape, sizeof(shape));
  mix(r.data().data(), r.data().size() * sizeof(r.data()[0]));
  return h;
}

// A fixed piece of work unrelated to the engine (sorting the same 64k
// pseudo-random keys), timed beside the queries: its spread is the host's
// drift, not the program's.
volatile uint32_t g_probe_sink = 0;
double ProbeMs() {
  static const std::vector<uint32_t> keys = [] {
    std::vector<uint32_t> v(1 << 16);
    uint32_t x = 2463534242u;
    for (uint32_t& k : v) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      k = x;
    }
    return v;
  }();
  Timer t;
  std::vector<uint32_t> v = keys;
  std::sort(v.begin(), v.end());
  g_probe_sink = v[v.size() / 2];
  return t.Millis();
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string Quartiles(const std::vector<double>& v) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%zu p25=%.4g p50=%.4g p75=%.4g", v.size(),
                Quantile(v, 0.25), Quantile(v, 0.5), Quantile(v, 0.75));
  return buf;
}

EngineOptions TimedOptions(const Workload& w) {
  EngineOptions o;
  o.threads = w.threads;
  return o;
}

EngineOptions ReferenceOptions() {
  EngineOptions o;
  o.threads = 1;
  o.use_plan_cache = false;
  o.vectorize = false;
  o.wcoj = false;
  return o;
}

// A workload bound to an engine. Heap-held: the engine keeps a pointer to
// the database.
struct Instance {
  Workload w;
  std::unique_ptr<Engine> engine;
  double generate_s = 0;
  double setup_s = 0;
};

// Everything before the first timed query: generation, Engine construction
// and the warm-up pass. Returns null (after reporting) if a warm-up query
// fails.
std::unique_ptr<Instance> SetUp(const Args& args) {
  Timer setup;
  auto s = std::make_unique<Instance>();
  Timer gen;
  MakeWorkload(args.workload, args.seed, args.seconds / 10.0, &s->w);
  s->generate_s = gen.Seconds();
  s->engine = std::make_unique<Engine>(s->w.db, TimedOptions(s->w));
  for (const Query& q : s->w.warmup) {
    auto r = s->engine->RunText(q.text, &s->w.db.dict());
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up query failed: %s\n  %s\n",
                   r.status().ToString().c_str(), q.text.c_str());
      return nullptr;
    }
  }
  s->setup_s = setup.Seconds();
  return s;
}

void ApplyAppend(Workload* w, size_t i) {
  if (w->append_every == 0 || (i + 1) % w->append_every != 0) return;
  const size_t j = (i + 1) / w->append_every - 1;
  if (j >= w->appends.size()) return;
  const Append& a = w->appends[j];
  // The shell's `.insert` path: rows through a mutable relation handle.
  paraquery::Relation& rel = w->db.relation(a.rel);
  for (size_t k = 0; k + 1 < a.rows.size(); k += 2) {
    rel.Add({a.rows[k], a.rows[k + 1]});
  }
}

// ---------------------------------------------------------------------------
// Per-layer instrumentation of one traced query.
// ---------------------------------------------------------------------------

struct LayerCounters {
  PlanCacheStats cache_before, cache_after;
  uint64_t trie_hits = 0, trie_builds = 0, col_hits = 0, col_builds = 0;
  uint64_t tasks = 0, steals = 0, idle_sleeps = 0;
  // Summed over the phase's queries from Engine::last_stats().
  uint64_t rows_produced = 0, answer_rows = 0, peak_rows = 0;
  uint64_t joins = 0, multiway_joins = 0, aggregates = 0;
  uint64_t index_builds = 0, index_hits = 0, vec_batches = 0, morsels = 0;
  uint64_t ineq_queries = 0, ineq_trials = 0, ineq_certified = 0;
  uint64_t dl_iterations = 0, dl_firings = 0, dl_skipped = 0;
  uint64_t ucq_disjuncts = 0, ucq_ie_subsets = 0;
};

struct EngineGauges {
  uint64_t trie_hits, trie_builds, col_hits, col_builds;
  uint64_t tasks, steals, idle_sleeps;
};

EngineGauges ReadGauges(const Engine& e) {
  const auto& sc = paraquery::GlobalStorageCacheStats();
  auto& m = e.metrics();
  return {sc.trie_hits.load(), sc.trie_builds.load(), sc.columnar_hits.load(),
          sc.columnar_builds.load(),
          m.counter("pq_scheduler_tasks_total").value(),
          m.counter("pq_scheduler_steals_total").value(),
          m.counter("pq_scheduler_idle_sleeps_total").value()};
}

void AddStats(const EngineStats& st, size_t answer_rows, LayerCounters* c) {
  const auto& p = st.plan;
  c->rows_produced += p.rows_produced;
  c->answer_rows += answer_rows;
  c->peak_rows = std::max<uint64_t>(c->peak_rows, p.peak_intermediate_rows);
  c->joins += p.joins;
  c->multiway_joins += p.multiway_joins;
  c->aggregates += p.aggregates;
  c->index_builds += p.index_builds;
  c->index_hits += p.index_hits;
  c->vec_batches += p.vec_batches;
  c->morsels += p.morsels;
  if (st.ineq.family_size > 0) {
    ++c->ineq_queries;
    c->ineq_trials += st.ineq.trials;
    c->ineq_certified += st.ineq.certified ? 1 : 0;
  }
  c->dl_iterations += st.datalog.iterations;
  c->dl_firings += st.datalog.rule_firings;
  c->dl_skipped += st.datalog.skipped_firings;
  c->ucq_disjuncts += st.ucq.disjuncts_evaluated;
  c->ucq_ie_subsets += st.ucq.ie_subsets;
}

// Times, around public calls, the work Engine::RunText does for a
// conjunctive query before execution: parsing, the comparison closure and
// the acyclicity test. Returns the query the engine routes (post-closure)
// in `effective`, or false if `text` is not a single rule.
bool ProbeFrontEnd(const Query& q, Workload* w, SpanLog* log, int root,
                   uint32_t qid, ConjunctiveQuery* effective) {
  const bool rule = q.route != Route::kUcq && q.route != Route::kDatalog &&
                    q.route != Route::kFo;
  int span = log->Open("query.parse", root, qid);
  if (!rule) {
    if (q.route == Route::kDatalog) {
      (void)paraquery::ParseDatalog(q.text, &w->db.dict());
    } else {
      (void)paraquery::ParseFirstOrder(q.text, &w->db.dict());
    }
    log->Close(span);
    return false;
  }
  auto parsed = paraquery::ParseConjunctive(q.text, &w->db.dict());
  log->Close(span);
  if (!parsed.ok()) return false;
  *effective = std::move(parsed).value();
  if (effective->HasComparisons() && !effective->HasOnlyInequalities()) {
    span = log->Open("query.closure", root, qid);
    auto closure = paraquery::CollapseComparisons(*effective);
    log->Close(span);
    if (!closure.ok() || !closure.value().consistent) return false;
    ConjunctiveQuery rewritten = closure.value().rewritten;
    if (!effective->answer.counting() || rewritten.Validate().ok()) {
      *effective = std::move(rewritten);
    }
  }
  span = log->Open("hypergraph.acyclicity", root, qid);
  (void)effective->IsAcyclic();
  log->Close(span);
  return !effective->body.empty();
}

// On a plan-cache miss the engine decomposes and plans the query; time the
// same public calls. The Theorem 2 residual compilation has no public entry
// point, so ≠-only acyclic queries are skipped.
void ProbePlanning(const ConjunctiveQuery& q, const Workload& w, SpanLog* log,
                   int root, uint32_t qid) {
  const bool acyclic = q.IsAcyclic();
  if (acyclic && q.HasComparisons() && q.HasOnlyInequalities() &&
      !q.answer.counting()) {
    return;
  }
  int span = log->Open("hypergraph.decomposition", root, qid);
  const auto h = q.BuildHypergraph();
  if (acyclic) {
    (void)paraquery::BuildJoinTree(h);
  } else {
    (void)paraquery::BuildHypertreeDecomposition(h);
  }
  log->Close(span);
  paraquery::PlannerOptions popts;  // vectorize and wcoj on, as in the engine
  span = log->Open("plan.planning", root, qid);
  if (q.answer.counting()) {
    (void)paraquery::PlanCountingCq(w.db, q, popts);
  } else {
    (void)paraquery::PlanConjunctive(w.db, q, popts);
  }
  log->Close(span);
}

// ---------------------------------------------------------------------------
// The timed phase.
// ---------------------------------------------------------------------------

struct Phase {
  std::vector<double> latency_s;  // per query, RunText only
  std::vector<uint64_t> digests;  // 0 for a failed query
  std::vector<std::string> errors;
  std::vector<double> block_qps;  // full blocks only
  std::vector<double> probe_ms;
  double wall_s = 0;  // phase wall minus the drift probes
  SpanLog spans;
  LayerCounters layers;
};

void RunPhase(Instance* s, bool traced, Phase* out) {
  Workload& w = s->w;
  Engine& engine = *s->engine;
  const size_t n = w.timed.size();
  const size_t block = w.block;
  out->latency_s.resize(n);
  out->digests.assign(n, 0);
  const EngineGauges g0 = ReadGauges(engine);
  out->layers.cache_before = engine.plan_cache().stats();
  Timer phase;
  Timer block_timer;
  double probe_total_ms = 0;
  for (size_t i = 0; i < n; ++i) {
    const Query& q = w.timed[i];
    const uint32_t qid = static_cast<uint32_t>(i);
    int root = -1;
    ConjunctiveQuery effective;
    bool is_cq = false;
    if (traced) {
      root = out->spans.Open("query", -1, qid);
      is_cq = ProbeFrontEnd(q, &w, &out->spans, root, qid, &effective);
    }
    const uint64_t misses_before = engine.plan_cache().stats().misses;
    const int run_span = traced ? out->spans.Open("core.run", root, qid) : -1;
    Timer t;
    auto r = engine.RunText(q.text, &w.db.dict());
    out->latency_s[i] = t.Seconds();
    if (traced) {
      out->spans.Close(run_span);
      const EngineStats& st = engine.last_stats();
      out->spans.AddMeasured("plan.exec", run_span, st.plan.wall_seconds);
      AddStats(st, r.ok() ? r.value().size() : 0, &out->layers);
      if (is_cq && engine.plan_cache().stats().misses > misses_before) {
        ProbePlanning(effective, w, &out->spans, root, qid);
      }
    }
    if (r.ok()) {
      out->digests[i] = Digest(r.value());
    } else {
      out->errors.push_back("query " + std::to_string(i) + ": " +
                            r.status().ToString() + "\n  " + q.text);
    }
    if (traced) out->spans.Close(root);
    ApplyAppend(&w, i);
    if ((i + 1) % block == 0 || i + 1 == n) {
      if ((i + 1) % block == 0) {
        out->block_qps.push_back(static_cast<double>(block) /
                                 block_timer.Seconds());
      }
      const double p = ProbeMs();
      out->probe_ms.push_back(p);
      probe_total_ms += p;
      block_timer.Reset();
    }
  }
  out->wall_s = phase.Seconds() - probe_total_ms / 1e3;
  out->layers.cache_after = engine.plan_cache().stats();
  const EngineGauges g1 = ReadGauges(engine);
  LayerCounters& c = out->layers;
  c.trie_hits = g1.trie_hits - g0.trie_hits;
  c.trie_builds = g1.trie_builds - g0.trie_builds;
  c.col_hits = g1.col_hits - g0.col_hits;
  c.col_builds = g1.col_builds - g0.col_builds;
  c.tasks = g1.tasks - g0.tasks;
  c.steals = g1.steals - g0.steals;
  c.idle_sleeps = g1.idle_sleeps - g0.idle_sleeps;
}

// ---------------------------------------------------------------------------
// Correctness: reference replay and committed digests.
// ---------------------------------------------------------------------------

// Digests of the reference configuration's answers over the timed sequence
// (0 where the reference itself fails). A read-only workload evaluates each
// distinct text once.
std::vector<uint64_t> ReferenceDigests(const Args& args) {
  Workload w;
  MakeWorkload(args.workload, args.seed, args.seconds / 10.0, &w);
  Engine ref(w.db, ReferenceOptions());
  std::map<std::string, uint64_t> memo;
  std::vector<uint64_t> out(w.timed.size(), 0);
  for (size_t i = 0; i < w.timed.size(); ++i) {
    const std::string& text = w.timed[i].text;
    auto it = w.appends.empty() ? memo.find(text) : memo.end();
    if (it != memo.end()) {
      out[i] = it->second;
    } else {
      auto r = ref.RunText(text, &w.db.dict());
      out[i] = r.ok() ? Digest(r.value()) : 0;
      if (w.appends.empty()) memo[text] = out[i];
    }
    ApplyAppend(&w, i);
  }
  return out;
}

// Committed digests for `workload`: lines "workload index hex".
std::map<size_t, uint64_t> LoadDigests(const std::string& path,
                                       const std::string& workload) {
  std::map<size_t, uint64_t> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name, hex;
    size_t index = 0;
    if (!(ls >> name >> index >> hex) || name != workload) continue;
    out[index] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return out;
}

// Counts the answers in `phase` that failed (digest 0), differ from the
// reference, or (when `committed` is given) differ from the committed
// digests.
size_t CountFailures(const Phase& phase, const std::vector<uint64_t>& ref,
                     const std::map<size_t, uint64_t>* committed) {
  size_t failed = 0;
  for (size_t i = 0; i < phase.digests.size(); ++i) {
    bool ok = phase.digests[i] != 0 && phase.digests[i] == ref[i];
    if (committed != nullptr && i < kCommittedDigests) {
      auto it = committed->find(i);
      ok = ok && it != committed->end() && it->second == ref[i];
    }
    if (!ok) ++failed;
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + v + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void ReportLatency(const Workload& w, const Phase& p) {
  std::vector<double> ms;
  for (double s : p.latency_s) ms.push_back(s * 1e3);
  std::fprintf(stderr, "latency_ms: %s\n", Quartiles(ms).c_str());
  // A percentile on a gap between query classes jumps between runs; these
  // neighbourhoods show whether p50 and p95 sit inside one class.
  std::fprintf(stderr,
               "  neighbourhoods: p45=%.4g p50=%.4g p55=%.4g | p90=%.4g "
               "p95=%.4g p97=%.4g p99=%.4g\n",
               Quantile(ms, 0.45), Quantile(ms, 0.50), Quantile(ms, 0.55),
               Quantile(ms, 0.90), Quantile(ms, 0.95), Quantile(ms, 0.97),
               Quantile(ms, 0.99));
  std::map<std::string, std::vector<double>> by_route;
  for (size_t i = 0; i < ms.size(); ++i) {
    by_route[RouteName(w.timed[i].route)].push_back(ms[i]);
  }
  for (const auto& [route, v] : by_route) {
    std::fprintf(stderr, "  route %-11s %s p95=%.4g\n", route.c_str(),
                 Quartiles(v).c_str(), Quantile(v, 0.95));
  }
  // A repeated query set also gets one line per query.
  std::map<std::string, std::vector<double>> by_text;
  for (size_t i = 0; i < ms.size(); ++i) by_text[w.timed[i].text].push_back(ms[i]);
  if (by_text.size() * 4 <= ms.size()) {
    for (const auto& [text, v] : by_text) {
      std::string one_line = text;
      std::replace(one_line.begin(), one_line.end(), '\n', ' ');
      std::fprintf(stderr, "  query p50=%8.4g  %s\n", Quantile(v, 0.5),
                   one_line.c_str());
    }
  }
  std::fprintf(stderr, "block_qps: %s (whole phase: %.4g)\n",
               Quartiles(p.block_qps).c_str(),
               static_cast<double>(p.latency_s.size()) / p.wall_s);
  std::fprintf(stderr, "drift_probe_ms: %s (fixed sort; host drift)\n",
               Quartiles(p.probe_ms).c_str());
}

std::vector<Metric> EndToEnd(const Phase& p, double setup_s, double rss_mb) {
  std::vector<double> ms;
  for (double s : p.latency_s) ms.push_back(s * 1e3);
  return {
      // The median block rate: a host stall shorter than half the run
      // does not move it.
      {"throughput_qps", Quantile(p.block_qps, 0.5), "1/s"},
      {"latency_p50_ms", Quantile(ms, 0.50), "ms"},
      {"latency_p95_ms", Quantile(ms, 0.95), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> PerLayer(const Workload& w, const Phase& untraced,
                             const Phase& traced, double generate_s) {
  const auto t = traced.spans.Summarize();
  auto total = [&](const char* name) {
    auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_s;
  };
  auto self = [&](const char* name) {
    auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.self_s;
  };
  const LayerCounters& c = traced.layers;
  const auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  const double hits = d(c.cache_after.hits, c.cache_before.hits);
  const double misses = d(c.cache_after.misses, c.cache_before.misses);
  std::vector<Metric> m = {
      {"query.parse_s", total("query.parse"), "s"},
      {"query.closure_s", total("query.closure"), "s"},
      {"hypergraph.acyclicity_s", total("hypergraph.acyclicity"), "s"},
      {"hypergraph.decomposition_s", total("hypergraph.decomposition"), "s"},
      {"plan.planning_s", total("plan.planning"), "s"},
      {"plan.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"plan.cache_stale",
       d(c.cache_after.stale_entries, c.cache_before.stale_entries), "count"},
      {"plan.cache_evictions",
       d(c.cache_after.evictions, c.cache_before.evictions), "count"},
      {"plan.exec_s", total("plan.exec"), "s"},
      {"plan.rows_produced", static_cast<double>(c.rows_produced), "count"},
      {"plan.rows_per_answer_row",
       Ratio(static_cast<double>(c.rows_produced),
             static_cast<double>(c.answer_rows)),
       "ratio"},
      {"plan.peak_intermediate_rows", static_cast<double>(c.peak_rows),
       "count"},
      {"plan.joins", static_cast<double>(c.joins), "count"},
      {"plan.multiway_joins", static_cast<double>(c.multiway_joins), "count"},
      {"plan.aggregates", static_cast<double>(c.aggregates), "count"},
      {"plan.index_builds", static_cast<double>(c.index_builds), "count"},
      {"plan.index_hits", static_cast<double>(c.index_hits), "count"},
      {"plan.vec_batches", static_cast<double>(c.vec_batches), "count"},
      {"core.run_s", total("core.run"), "s"},
      {"core.outside_exec_s", self("core.run"), "s"},
  };
  // Per-route p50 of Engine::RunText in the traced pass (0 for a route the
  // workload does not run).
  std::vector<std::vector<double>> route_ms(kRouteCount);
  for (const auto& s : traced.spans.spans()) {
    if (std::strcmp(s.name, "core.run") != 0) continue;
    route_ms[static_cast<size_t>(w.timed[s.query].route)].push_back(
        (s.end_s - s.start_s) * 1e3);
  }
  for (size_t r = 0; r < kRouteCount; ++r) {
    m.push_back({std::string("eval.") + RouteName(static_cast<Route>(r)) +
                     ".p50_ms",
                 Quantile(route_ms[r], 0.5), "ms"});
  }
  const auto f = [](uint64_t v) { return static_cast<double>(v); };
  m.insert(
      m.end(),
      {
          {"eval.ineq.trials", f(c.ineq_trials), "count"},
          {"eval.ineq.certified_ratio",
           Ratio(f(c.ineq_certified), f(c.ineq_queries)), "ratio"},
          {"eval.datalog.iterations", f(c.dl_iterations), "count"},
          {"eval.datalog.rule_firings", f(c.dl_firings), "count"},
          {"eval.datalog.skipped_ratio",
           Ratio(f(c.dl_skipped), f(c.dl_firings + c.dl_skipped)), "ratio"},
          {"eval.ucq.disjuncts_evaluated", f(c.ucq_disjuncts), "count"},
          {"eval.ucq.ie_subsets", f(c.ucq_ie_subsets), "count"},
          {"relational.trie_hit_ratio",
           Ratio(f(c.trie_hits), f(c.trie_hits + c.trie_builds)), "ratio"},
          {"relational.trie_builds", f(c.trie_builds), "count"},
          {"relational.columnar_hit_ratio",
           Ratio(f(c.col_hits), f(c.col_hits + c.col_builds)), "ratio"},
          {"relational.columnar_builds", f(c.col_builds), "count"},
          {"runtime.tasks", f(c.tasks), "count"},
          {"runtime.steals", f(c.steals), "count"},
          {"runtime.idle_sleeps", f(c.idle_sleeps), "count"},
          {"runtime.morsels", f(c.morsels), "count"},
          {"obs.trace_overhead_ratio", Ratio(traced.wall_s, untraced.wall_s),
           "ratio"},
          {"workload.generate_s", generate_s, "s"},
      });
  // Each time as a share of the traced pass's end-to-end wall time.
  std::fprintf(stderr, "per-layer (traced pass, wall %.4f s):\n",
               traced.wall_s);
  for (const Metric& x : m) {
    if (x.unit == "s") {
      std::fprintf(stderr, "  %-30s %12.6f s  %6.2f%%\n", x.name.c_str(),
                   x.value, 100 * Ratio(x.value, traced.wall_s));
    } else {
      std::fprintf(stderr, "  %-30s %12.6g %s\n", x.name.c_str(), x.value,
                   x.unit.c_str());
    }
  }
  std::fprintf(stderr, "  %-30s %12.6f s  (benchmark's own work per query)\n",
               "client self", self("query"));
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--digests FILE] [--trace-out FILE] "
                 "[--write-digests]\n");
    return 2;
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.write_digests) {
    const std::vector<uint64_t> ref = ReferenceDigests(args);
    for (size_t i = 0; i < std::min(kCommittedDigests, ref.size()); ++i) {
      std::printf("%s %zu %016" PRIx64 "\n", args.workload.c_str(), i, ref[i]);
    }
    return 0;
  }

  // Set-up, kSetups times; the last instance is the one timed.
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    inst = SetUp(args);
    if (inst == nullptr) return 1;
    setup_s.push_back(inst->setup_s);
    generate_s.push_back(inst->generate_s);
  }
  const double setup_median = Quantile(setup_s, 0.5);
  std::fprintf(stderr, "workload %s seed %" PRIu64 ": %zu timed queries, "
               "width %zu; setup_s: %s\n",
               args.workload.c_str(), args.seed, inst->w.timed.size(),
               inst->w.threads, Quartiles(setup_s).c_str());

  std::vector<Phase> phases(args.trace ? 2 : 1);
  RunPhase(inst.get(), false, &phases[0]);
  const double rss_mb = PeakRssMb();
  if (args.trace) {
    inst.reset();
    inst = SetUp(args);
    if (inst == nullptr) return 1;
    RunPhase(inst.get(), true, &phases[1]);
  }

  // Correctness, outside the timed phases.
  const std::vector<uint64_t> ref = ReferenceDigests(args);
  std::map<size_t, uint64_t> committed;
  const bool check_committed = args.seed == kDefaultSeed;
  if (check_committed) committed = LoadDigests(args.digests, args.workload);
  size_t attempted = 0, failed = 0;
  for (const Phase& p : phases) {
    attempted += p.digests.size();
    failed += CountFailures(p, ref, check_committed ? &committed : nullptr);
    for (const std::string& e : p.errors) {
      std::fprintf(stderr, "error: %s\n", e.c_str());
    }
  }
  if (failed > 0) {
    std::fprintf(stderr, "%zu of %zu answers wrong%s\n", failed, attempted,
                 check_committed ? " (or not matching the committed digests)"
                                 : "");
  }

  ReportLatency(inst->w, phases[0]);
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(inst->w, phases[0], phases[1],
                       Quantile(generate_s, 0.5));
    if (!args.trace_out.empty() && !phases[1].spans.Write(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  } else {
    metrics = EndToEnd(phases[0], setup_median, rss_mb);
  }
  std::printf("%s\n", Json(failed == 0, attempted, failed, metrics).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
