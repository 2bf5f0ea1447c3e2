#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

using paraquery::Database;
using paraquery::RelId;
using paraquery::Relation;
using paraquery::Rng;
using paraquery::Value;

const char* RouteName(Route route) {
  switch (route) {
    case Route::kYannakakis: return "yannakakis";
    case Route::kIneq: return "ineq";
    case Route::kComparison: return "comparison";
    case Route::kCyclic: return "cyclic";
    case Route::kUcq: return "ucq";
    case Route::kCount: return "count";
    case Route::kDatalog: return "datalog";
    case Route::kFo: return "fo";
  }
  return "unknown";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "data_complexity", "query_complexity", "update_mix"};
  return names;
}

namespace {

// ---------------------------------------------------------------------------
// data_complexity / update_mix: 10^4-row relations, a fixed query set.
// ---------------------------------------------------------------------------

constexpr Value kBigDomain = 4000;    // R, S, T values
constexpr size_t kBigRows = 20000;    // rows of R, S, T, EM, ES
constexpr Value kGraphVertices = 10000;
constexpr size_t kGraphEdges = 30000;  // E, directed
// G: the Theorem 2 query's graph. Color coding runs its plan once per
// coloring (17 for k = 2), so its input is smaller.
constexpr Value kSmallGraphVertices = 600;
constexpr size_t kSmallGraphEdges = 1500;
constexpr size_t kAppendEvery = 8;    // update_mix: queries between appends
constexpr size_t kAppendRows = 32;    // update_mix: rows per append
constexpr size_t kPassesPerScale = 60;
constexpr size_t kBlockPasses = 3;  // passes per throughput block

// `rows` random pairs over [0, domain), deduplicated.
void AddRandomPairs(Database* db, const char* name, size_t rows, Value domain,
                    Rng* rng) {
  Relation& rel = db->relation(db->AddRelation(name, 2).ValueOrDie());
  for (size_t i = 0; i < rows; ++i) {
    rel.Add({rng->Range(0, domain - 1), rng->Range(0, domain - 1)});
  }
  rel.SortAndDedup();
}

// Directed edges without self loops.
void AddRandomGraph(Database* db, const char* name, Value vertices,
                    size_t edges, Rng* rng) {
  Relation& rel = db->relation(db->AddRelation(name, 2).ValueOrDie());
  for (size_t i = 0; i < edges; ++i) {
    const Value a = rng->Range(0, vertices - 1);
    const Value b = rng->Range(0, vertices - 2);
    rel.Add({a, b >= a ? b + 1 : b});
  }
  rel.SortAndDedup();
}

Database MakeBigDatabase(Rng* rng) {
  Database db;
  for (const char* name : {"R", "S", "T"}) {
    AddRandomPairs(&db, name, kBigRows, kBigDomain, rng);
  }
  AddRandomGraph(&db, "E", kGraphVertices, kGraphEdges, rng);
  AddRandomGraph(&db, "G", kSmallGraphVertices, kSmallGraphEdges, rng);
  // The paper's salary example: EM(employee, manager), ES(employee, salary);
  // every employee but 0 has a lower-numbered manager.
  RelId em = db.AddRelation("EM", 2).ValueOrDie();
  RelId es = db.AddRelation("ES", 2).ValueOrDie();
  for (size_t i = 0; i < kBigRows; ++i) {
    const Value emp = static_cast<Value>(i);
    if (emp > 0) db.relation(em).Add({emp, rng->Range(0, emp - 1)});
    db.relation(es).Add({emp, rng->Range(0, 999999)});
  }
  return db;
}

// One or two queries per route, each sized so no route dominates a pass.
// The costs fall into tiers: two cheap comparison queries, four of about
// the same cost (UCQ, COUNT(*), reachability, triangle), and four heavy
// ones. The pass median then lies between the 5th and 6th queries, inside
// the middle tier rather than on the gap above it, and p95 lies inside the
// slowest query's latencies.
std::vector<Query> BigQuerySet(Rng* rng) {
  const std::string c = std::to_string(rng->Range(0, kGraphVertices - 1));
  return {
      {"ans(x, z) :- R(x, y), S(y, z), T(z, w).", Route::kYannakakis},
      {"ans(x, z) :- G(x, y), G(y, z), x != z.", Route::kIneq},
      {"ans(e) :- EM(e, m), ES(e, s), ES(m, t), t < s.", Route::kComparison},
      {"ans(x, z) :- R(x, y), S(y, z), y <= x, x <= y.", Route::kComparison},
      {"ans(x, y, z) :- E(x, y), E(y, z), E(z, x).", Route::kCyclic},
      {"ans(x) :- R(x, y), S(y, z), T(z, w), R(w, x).", Route::kCyclic},
      {"ans(x) := exists y, z . ((R(x, y) and S(y, z)) or "
       "(T(x, y) and S(y, z))).",
       Route::kUcq},
      {"COUNT(x) :- R(x, y), S(y, z), T(z, w).", Route::kCount},
      {"COUNT(*) :- R(h, x), S(h, y), T(h, z).", Route::kCount},
      {"reach(y) :- E(" + c + ", y).\nreach(y) :- reach(x), E(x, y).\n"
       "@goal reach.",
       Route::kDatalog},
  };
}

void MakeBig(const std::string& name, uint64_t seed, double scale,
             Workload* out) {
  Rng rng(seed);
  out->name = name;
  out->db = MakeBigDatabase(&rng);
  out->threads = 2;
  const std::vector<Query> set = BigQuerySet(&rng);
  for (int pass = 0; pass < 2; ++pass) {
    out->warmup.insert(out->warmup.end(), set.begin(), set.end());
  }
  // At least 200 timed queries, so p95 has ten samples beyond it.
  const size_t passes = std::max<size_t>(
      (200 + set.size() - 1) / set.size(),
      static_cast<size_t>(std::lround(kPassesPerScale * scale)));
  for (size_t pass = 0; pass < passes; ++pass) {
    out->timed.insert(out->timed.end(), set.begin(), set.end());
  }
  out->block = kBlockPasses * set.size();
  if (name != "update_mix") return;
  const RelId r = out->db.FindRelation("R").ValueOrDie();
  out->append_every = kAppendEvery;
  for (size_t j = 0; j < out->timed.size() / kAppendEvery; ++j) {
    Append a;
    a.rel = r;
    for (size_t i = 0; i < kAppendRows; ++i) {
      a.rows.push_back(rng.Range(0, kBigDomain - 1));
      a.rows.push_back(rng.Range(0, kBigDomain - 1));
    }
    out->appends.push_back(std::move(a));
  }
}

// ---------------------------------------------------------------------------
// query_complexity: relations under the 256-row vectorization threshold and
// a stream of distinct queries whose structure varies.
// ---------------------------------------------------------------------------

constexpr int kSmallRelations = 8;  // Q0..Q7
constexpr size_t kSmallRows = 200;
constexpr Value kSmallDomain = 40;
constexpr size_t kStreamPerScale = 8000;
constexpr size_t kStreamWarmup = 300;
constexpr size_t kStreamBlock = 500;  // queries per throughput block

std::string V(int v) { return "v" + std::to_string(v); }

std::string Atom(Rng* rng, const std::string& a, const std::string& b) {
  return "Q" + std::to_string(rng->Below(kSmallRelations)) + "(" + a + ", " +
         b + ")";
}

// `atoms` binary atoms over variables 0..atoms, named by `name`: atom i
// joins one earlier variable to a fresh one, so the hypergraph is a tree
// (acyclic).
std::vector<std::string> TreeAtoms(
    Rng* rng, int atoms, int* nvars,
    const std::function<std::string(int)>& name = V) {
  std::vector<std::string> out;
  out.push_back(Atom(rng, name(0), name(1)));
  *nvars = 2;
  for (int i = 1; i < atoms; ++i) {
    const int old = static_cast<int>(rng->Below(*nvars));
    const int fresh = (*nvars)++;
    out.push_back(rng->Chance(0.5) ? Atom(rng, name(old), name(fresh))
                                   : Atom(rng, name(fresh), name(old)));
  }
  return out;
}

// `count` distinct variables out of [0, nvars), in increasing order.
std::vector<int> PickVars(Rng* rng, int nvars, int count) {
  std::vector<int> all(nvars);
  for (int i = 0; i < nvars; ++i) all[i] = i;
  for (int i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng->Below(nvars - i)]);
  }
  std::vector<int> out(all.begin(), all.begin() + count);
  std::sort(out.begin(), out.end());
  return out;
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Rule(const std::string& head, const std::vector<int>& head_vars,
                 const std::vector<std::string>& body) {
  std::vector<std::string> hv;
  for (int v : head_vars) hv.push_back(V(v));
  return head + "(" + Join(hv, ", ") + ") :- " + Join(body, ", ") + ".";
}

// Each generator takes `nth`, the query's index within its class: the
// discrete shape choices (atom count, number of ≠ / < atoms, disjuncts,
// template) cycle through their range with it, so every run has the same
// composition and only the relations and attachment points are random.

std::string AcyclicQuery(Rng* rng, size_t nth) {
  int nvars = 0;
  auto body = TreeAtoms(rng, 3 + static_cast<int>(nth % 7), &nvars);
  return Rule("ans", PickVars(rng, nvars, 1 + static_cast<int>(nth / 7 % 2)),
              body);
}

// A 3- or 4-cycle plus 0-2 pendant atoms.
std::string CyclicQuery(Rng* rng, size_t nth) {
  const int len = 3 + static_cast<int>(nth % 2);
  std::vector<std::string> body;
  for (int i = 0; i < len; ++i) {
    body.push_back(Atom(rng, V(i), V((i + 1) % len)));
  }
  int nvars = len;
  const int pendants = static_cast<int>(nth / 2 % 3);
  for (int i = 0; i < pendants; ++i) {
    body.push_back(Atom(rng, V(static_cast<int>(rng->Below(nvars))), V(nvars)));
    ++nvars;
  }
  return Rule("ans", PickVars(rng, nvars, 1 + static_cast<int>(nth / 6 % 2)),
              body);
}

// Acyclic body plus one ≠ atom (k = 2, 3-5 atoms) or two over three
// variables (k = 3, 3-4 atoms). Every coloring of the family (Theorem 2's
// f(k): 35 colorings for k = 3) re-runs the whole residual plan, so the
// k = 3 bodies stay small.
std::string IneqQuery(Rng* rng, size_t nth) {
  const bool k3 = nth / 3 % 2 == 1;
  int nvars = 0;
  auto body =
      TreeAtoms(rng, 3 + static_cast<int>(nth % (k3 ? 2 : 3)), &nvars);
  const std::vector<int> pool = PickVars(rng, nvars, 3);
  body.push_back(V(pool[0]) + " != " + V(pool[1]));
  if (k3) body.push_back(V(pool[1]) + " != " + V(pool[2]));
  return Rule("ans", PickVars(rng, nvars, 1 + static_cast<int>(nth / 6 % 2)),
              body);
}

// Acyclic body plus order comparisons: 1-2 strict `<` atoms that survive the
// closure (Theorem 3's route), and in every fourth pair of queries a `<=`
// cycle that the closure collapses.
std::string ComparisonQuery(Rng* rng, size_t nth) {
  int nvars = 0;
  auto body = TreeAtoms(rng, 3 + static_cast<int>(nth % 3), &nvars);
  const int lts = 1 + static_cast<int>(nth / 3 % 2);
  for (int i = 0; i < lts; ++i) {
    const std::vector<int> p = PickVars(rng, nvars, 2);
    body.push_back(V(p[0]) + " < " + V(p[1]));
  }
  if (nth / 6 % 4 == 3) {
    const std::vector<int> p = PickVars(rng, nvars, 2);
    body.push_back(V(p[0]) + " <= " + V(p[1]));
    body.push_back(V(p[1]) + " <= " + V(p[0]));
  }
  return Rule("ans", PickVars(rng, nvars, 1 + static_cast<int>(nth / 24 % 2)),
              body);
}

// 2-3 acyclic disjuncts of 2-4 atoms over the free variables x, y.
std::string UcqQuery(Rng* rng, size_t nth) {
  const int disjuncts = 2 + static_cast<int>(nth % 2);
  std::vector<std::string> parts;
  for (int d = 0; d < disjuncts; ++d) {
    const int atoms = 2 + static_cast<int>((nth / 2 + d) % 3);
    // Variable 0 is x, variable `y` is y; the rest are existential.
    const int y = 1 + static_cast<int>(rng->Below(atoms));
    auto name = [&](int v) {
      if (v == 0) return std::string("x");
      if (v == y) return std::string("y");
      return std::string("e") + std::to_string(d) + "_" + std::to_string(v);
    };
    int nvars = 0;
    const auto body = TreeAtoms(rng, atoms, &nvars, name);
    std::vector<std::string> bound;
    for (int v = 1; v < nvars; ++v) {
      if (v != y) bound.push_back(name(v));
    }
    const std::string conj = Join(body, " and ");
    parts.push_back(bound.empty() ? "(" + conj + ")"
                                  : "(exists " + Join(bound, ", ") + " . (" +
                                        conj + "))");
  }
  return "ans(x, y) := " + Join(parts, " or ") + ".";
}

std::string CountQuery(Rng* rng, size_t nth) {
  int nvars = 0;
  auto body = TreeAtoms(rng, 3 + static_cast<int>(nth % 4), &nvars);
  const std::string head =
      nth / 4 % 2 == 0
          ? "COUNT(*)"
          : "COUNT(" + V(static_cast<int>(rng->Below(nvars))) + ")";
  return head + " :- " + Join(body, ", ") + ".";
}

std::string Rel(Rng* rng) {
  return "Q" + std::to_string(rng->Below(kSmallRelations));
}

std::string DatalogQuery(Rng* rng, size_t nth) {
  switch (nth % 3) {
    case 0:
      return "p(x, y) :- " + Rel(rng) + "(x, y).\np(x, y) :- p(x, z), " +
             Rel(rng) + "(z, y).\nq(y) :- p(" +
             std::to_string(rng->Below(kSmallDomain)) + ", y).\n@goal q.";
    case 1:
      return "r(y) :- " + Rel(rng) + "(" +
             std::to_string(rng->Below(kSmallDomain)) +
             ", y).\nr(y) :- r(x), " + Rel(rng) + "(x, y).\n@goal r.";
    default:
      return "p(x, y) :- " + Rel(rng) + "(x, y).\np(x, y) :- " + Rel(rng) +
             "(x, z), p(z, y).\np(x, y) :- p(x, z), " + Rel(rng) + "(z, w), " +
             Rel(rng) + "(w, y).\n@goal p.";
  }
}

// First-order queries with negation: they run on the active-domain algebra,
// whose complements are domain^k sized (fine at 40 values and k = 2, not at
// 20k rows).
std::string FoQuery(Rng* rng, size_t nth) {
  const std::string c = std::to_string(rng->Below(kSmallDomain));
  switch (nth % 3) {
    case 0:
      return "ans(x) := exists y . (" + Rel(rng) + "(x, y) and not " +
             Rel(rng) + "(y, x) and y != " + c + ").";
    case 1:
      return "ans(x, y) := " + Rel(rng) + "(x, y) and x != " + c +
             " and not exists z . (" + Rel(rng) + "(y, z) and " + Rel(rng) +
             "(z, x)).";
    default:
      return "ans(x) := exists y . (" + Rel(rng) + "(x, y) and y != " + c +
             ") and forall z . (not " + Rel(rng) + "(x, z) or " + Rel(rng) +
             "(z, x)).";
  }
}

// The class of stream query i is kSchedule[i % 20]: every run, and every
// prefix of one, has the same mix, so the quantiles of two seeds compare.
constexpr Route kSchedule[] = {
    Route::kYannakakis, Route::kCyclic,     Route::kIneq,
    Route::kComparison, Route::kUcq,        Route::kCount,
    Route::kDatalog,    Route::kYannakakis, Route::kCyclic,
    Route::kIneq,       Route::kComparison, Route::kFo,
    Route::kYannakakis, Route::kCyclic,     Route::kIneq,
    Route::kComparison, Route::kUcq,        Route::kCount,
    Route::kDatalog,    Route::kYannakakis,
};
constexpr size_t kScheduleLen = sizeof(kSchedule) / sizeof(kSchedule[0]);

std::string StreamQuery(Route route, size_t nth, Rng* rng) {
  switch (route) {
    case Route::kYannakakis: return AcyclicQuery(rng, nth);
    case Route::kIneq: return IneqQuery(rng, nth);
    case Route::kComparison: return ComparisonQuery(rng, nth);
    case Route::kCyclic: return CyclicQuery(rng, nth);
    case Route::kUcq: return UcqQuery(rng, nth);
    case Route::kCount: return CountQuery(rng, nth);
    case Route::kDatalog: return DatalogQuery(rng, nth);
    case Route::kFo: return FoQuery(rng, nth);
  }
  return "";
}

// Appends `count` stream queries, skipping texts already in `seen`.
void AppendStream(Rng* rng, size_t count, std::unordered_set<std::string>* seen,
                  std::vector<Query>* out) {
  std::vector<size_t> nth(kRouteCount, 0);
  for (size_t i = 0; i < count; ++i) {
    const Route route = kSchedule[i % kScheduleLen];
    std::string text;
    // Redraw a repeated text; a shape with few variants may repeat after
    // 100 draws (a plan-cache hit, visible in plan.cache_hit_ratio).
    for (int draw = 0; draw < 100; ++draw) {
      text = StreamQuery(route, nth[static_cast<size_t>(route)], rng);
      if (seen->insert(text).second) break;
    }
    ++nth[static_cast<size_t>(route)];
    out->push_back({std::move(text), route});
  }
}

void MakeQueryComplexity(uint64_t seed, double scale, Workload* out) {
  Rng rng(seed);
  out->name = "query_complexity";
  out->threads = 1;
  for (int i = 0; i < kSmallRelations; ++i) {
    const std::string name = std::string("Q") + std::to_string(i);
    AddRandomPairs(&out->db, name.c_str(), kSmallRows, kSmallDomain, &rng);
  }
  // Separate streams, so the timed prefix does not depend on the scale and
  // the warm-up never repeats a timed query.
  Rng timed_rng = rng.Fork();
  Rng warmup_rng = rng.Fork();
  std::unordered_set<std::string> seen;
  const size_t count = std::max<size_t>(
      200, static_cast<size_t>(std::lround(kStreamPerScale * scale)));
  AppendStream(&timed_rng, count, &seen, &out->timed);
  out->block = kStreamBlock;
  AppendStream(&warmup_rng, kStreamWarmup, &seen, &out->warmup);
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out) {
  *out = Workload{};
  if (name == "data_complexity" || name == "update_mix") {
    MakeBig(name, seed, scale, out);
    return true;
  }
  if (name == "query_complexity") {
    MakeQueryComplexity(seed, scale, out);
    return true;
  }
  return false;
}

}  // namespace perfbench
