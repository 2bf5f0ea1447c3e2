// Seeded workload generation for the perfbench program. A workload is a
// database plus a fixed sequence of query texts (and, for update_mix, row
// batches appended between queries). Everything derives from the seed
// through paraquery::Rng, so one seed gives byte-identical inputs on every
// host and compiler; the engine only ever sees the generated rows and text.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relational/database.hpp"

namespace perfbench {

/// The engine route a query was generated for (the routing table in
/// core/engine.hpp): it labels per-route latency, nothing more.
enum class Route {
  kYannakakis,
  kIneq,
  kComparison,
  kCyclic,
  kUcq,
  kCount,
  kDatalog,
  kFo,
};
inline constexpr size_t kRouteCount = 8;
const char* RouteName(Route route);

struct Query {
  std::string text;
  Route route;
};

/// Rows appended to one stored relation (flat, row-major).
struct Append {
  paraquery::RelId rel = 0;
  std::vector<paraquery::Value> rows;
};

struct Workload {
  std::string name;
  paraquery::Database db;
  /// Engine width (EngineOptions::threads).
  size_t threads = 1;
  /// Run untimed after engine construction, as part of setup.
  std::vector<Query> warmup;
  /// The timed sequence, in order.
  std::vector<Query> timed;
  /// Throughput is the median rate over blocks of this many timed queries
  /// (whole passes of a repeated query set).
  size_t block = 1;
  /// update_mix: appends[j] is applied after timed query
  /// (j + 1) * append_every - 1. Zero means a read-only workload.
  size_t append_every = 0;
  std::vector<Append> appends;
};

/// The workload names, in the order the README documents them.
const std::vector<std::string>& WorkloadNames();

/// Builds `name` for `seed`. `scale` multiplies the timed query count (the
/// program passes its run length in seconds over 10), so a run does a fixed
/// amount of work rather than running for a fixed time. Returns false for
/// an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
