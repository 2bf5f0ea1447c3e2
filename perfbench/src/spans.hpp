// In-memory span log for the traced run: the benchmark records one span
// around each public call it makes into a layer (name, start, end, parent,
// query id), keeps them in memory while the run is timed, and writes them
// out at the end. Self time = duration minus the part covered by children.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;  // index into spans(), -1 for a root
    uint32_t query;
  };

  struct Totals {
    double total_s = 0;  // summed durations
    double self_s = 0;   // summed durations minus children
    size_t count = 0;
  };

  SpanLog() : origin_(Clock::now()) {}

  int Open(const char* name, int parent, uint32_t query) {
    spans_.push_back({name, Now(), 0, parent, query});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[id].end_s = Now(); }

  /// A child whose duration was measured by the program itself (e.g.
  /// PlanStats::wall_seconds inside an Engine::RunText span): placed at the
  /// parent's start.
  void AddMeasured(const char* name, int parent, double seconds) {
    const Span& p = spans_[parent];
    spans_.push_back({name, p.start_s, p.start_s + seconds, parent, p.query});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name total and self time.
  std::map<std::string, Totals> Summarize() const {
    std::vector<double> child_s(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[s.parent] += s.end_s - s.start_s;
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double dur = spans_[i].end_s - spans_[i].start_s;
      t.total_s += dur;
      t.self_s += dur - child_s[i];
      ++t.count;
    }
    return out;
  }

  /// Tab-separated: id, parent, query, name, start_us, end_us.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tquery\tname\tstart_us\tend_us\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%u\t%s\t%.3f\t%.3f\n", i, s.parent, s.query,
                   s.name, s.start_s * 1e6, s.end_s * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
