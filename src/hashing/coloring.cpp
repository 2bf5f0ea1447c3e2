#include "hashing/coloring.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/combinatorics.hpp"
#include "common/rng.hpp"

namespace paraquery {

ColoringFamily ColoringFamily::MonteCarlo(int k, double c, uint64_t seed) {
  PQ_CHECK(k >= 0, "MonteCarlo: negative k");
  PQ_CHECK(c > 0, "MonteCarlo: error exponent must be positive");
  size_t members = 1;
  if (k > 1) {
    double raw = std::ceil(c * std::exp(static_cast<double>(k)));
    members = static_cast<size_t>(std::max(1.0, raw));
  }
  Rng rng(seed);
  std::vector<uint64_t> seeds(members);
  for (auto& s : seeds) s = rng.Next();
  return ColoringFamily(k, std::move(seeds), /*certified=*/k <= 1);
}

Result<ColoringFamily> ColoringFamily::Certified(
    const std::vector<Value>& ground, int k, uint64_t seed,
    uint64_t max_subsets, size_t max_members) {
  PQ_CHECK(k >= 0, "Certified: negative k");
  int n = static_cast<int>(ground.size());
  if (k <= 1) {
    // Every member is injective on sets of at most one value.
    return ColoringFamily(k, {0xabcdef1234567890ull}, /*certified=*/true);
  }
  uint64_t num_subsets = Binomial(static_cast<uint64_t>(n),
                                  static_cast<uint64_t>(k));
  if (num_subsets > max_subsets) {
    return Status::ResourceExhausted(internal::StrCat(
        "Certified coloring family: C(", n, ",", k, ") = ", num_subsets,
        " exceeds limit ", max_subsets));
  }
  // Cover the k-subsets (as ground indices, in lexicographic order)
  // greedily: probe seeds come from one Rng stream, and a probe joins the
  // family iff it is injective on some subset no earlier member covered.
  // Each probe colors the ground set once (`color[g]`). The uncovered
  // subsets live in one flat array, k indices each, compacted in place; the
  // first probe runs during the enumeration, so a subset it covers is never
  // kept.
  Rng rng(seed);
  std::vector<uint64_t> seeds;
  std::vector<Value> color(n);
  auto probe = [&] {
    const uint64_t s = rng.Next();
    for (int g = 0; g < n; ++g) color[g] = HashColor(s, k, ground[g]);
    return s;
  };
  // Copies `subset` to `dst` (at or before it) and returns 1 iff the probe
  // leaves it uncovered; the caller advances `dst` by that. The verdicts
  // are coin flips, so the compaction avoids a branch on them.
  auto keep = [&](const int* subset, int* dst) {
    bool collides = false;
    for (int j = 1; j < k; ++j) {
      for (int l = 0; l < j; ++l) {
        collides |= color[subset[l]] == color[subset[j]];
      }
    }
    for (int j = 0; j < k; ++j) dst[j] = subset[j];
    return static_cast<size_t>(collides);
  };
  auto too_many = [&](uint64_t uncovered) {
    return Status::ResourceExhausted(internal::StrCat(
        "Certified coloring family: exceeded ", max_members, " members with ",
        uncovered, " subsets uncovered"));
  };
  std::vector<int> uncovered;
  if (num_subsets > 0) {
    if (max_members == 0) return too_many(num_subsets);
    const uint64_t s = probe();
    uncovered.resize(num_subsets * k);
    std::vector<int> subset(k);
    std::iota(subset.begin(), subset.end(), 0);
    size_t kept = 0;
    for (;;) {
      kept += keep(subset.data(), uncovered.data() + kept * k);
      int i = k - 1;  // advance to the next subset in lexicographic order
      while (i >= 0 && subset[i] == n - k + i) --i;
      if (i < 0) break;
      ++subset[i];
      for (int j = i + 1; j < k; ++j) subset[j] = subset[j - 1] + 1;
    }
    if (kept < num_subsets) seeds.push_back(s);
    uncovered.resize(kept * k);
  }
  while (!uncovered.empty()) {
    const size_t remaining = uncovered.size() / k;
    if (seeds.size() >= max_members) return too_many(remaining);
    const uint64_t s = probe();
    size_t kept = 0;
    for (size_t i = 0; i < remaining; ++i) {
      kept += keep(uncovered.data() + i * k, uncovered.data() + kept * k);
    }
    if (kept < remaining) seeds.push_back(s);
    uncovered.resize(kept * k);
  }
  if (seeds.empty()) seeds.push_back(rng.Next());
  return ColoringFamily(k, std::move(seeds), /*certified=*/true);
}

bool ColoringFamily::InjectiveOn(size_t member,
                                 const std::vector<Value>& values) const {
  std::vector<Value> colors;
  colors.reserve(values.size());
  for (Value v : values) colors.push_back(Color(member, v));
  std::sort(colors.begin(), colors.end());
  return std::adjacent_find(colors.begin(), colors.end()) == colors.end();
}

bool ColoringFamily::IsPerfectOn(const std::vector<Value>& ground) const {
  if (k_ <= 1) return true;
  int n = static_cast<int>(ground.size());
  bool all_covered = true;
  ForEachKSubset(n, k_, [&](const std::vector<int>& subset) {
    std::vector<Value> values;
    values.reserve(subset.size());
    for (int i : subset) values.push_back(ground[i]);
    for (size_t m = 0; m < size(); ++m) {
      if (InjectiveOn(m, values)) return true;  // next subset
    }
    all_covered = false;
    return false;  // stop
  });
  return all_covered;
}

}  // namespace paraquery
