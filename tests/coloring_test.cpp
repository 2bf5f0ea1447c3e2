#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "hashing/coloring.hpp"

namespace paraquery {
namespace {

TEST(ColoringTest, MonteCarloSizeMatchesFormula) {
  auto fam = ColoringFamily::MonteCarlo(4, 2.0, 1);
  EXPECT_EQ(fam.size(),
            static_cast<size_t>(std::ceil(2.0 * std::exp(4.0))));
  EXPECT_EQ(fam.k(), 4);
  EXPECT_FALSE(fam.certified());
}

TEST(ColoringTest, TrivialKIsSingleMemberCertified) {
  auto fam0 = ColoringFamily::MonteCarlo(0, 1.0, 1);
  EXPECT_EQ(fam0.size(), 1u);
  EXPECT_TRUE(fam0.certified());
  auto fam1 = ColoringFamily::MonteCarlo(1, 1.0, 1);
  EXPECT_EQ(fam1.size(), 1u);
  EXPECT_EQ(fam1.Color(0, 12345), 1);
}

TEST(ColoringTest, ColorsInRange) {
  auto fam = ColoringFamily::MonteCarlo(5, 1.0, 7);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    Value v = static_cast<Value>(rng.Next());
    for (size_t m = 0; m < 3; ++m) {
      Value c = fam.Color(m, v);
      EXPECT_GE(c, 1);
      EXPECT_LE(c, 5);
    }
  }
}

TEST(ColoringTest, ColorIsDeterministic) {
  auto a = ColoringFamily::MonteCarlo(3, 1.0, 42);
  auto b = ColoringFamily::MonteCarlo(3, 1.0, 42);
  for (Value v = 0; v < 100; ++v) EXPECT_EQ(a.Color(0, v), b.Color(0, v));
}

TEST(ColoringTest, CertifiedIsPerfectOnGround) {
  std::vector<Value> ground;
  for (Value v = 100; v < 130; ++v) ground.push_back(v * 7919);
  for (int k = 2; k <= 4; ++k) {
    auto fam = ColoringFamily::Certified(ground, k, /*seed=*/5).ValueOrDie();
    EXPECT_TRUE(fam.certified());
    EXPECT_TRUE(fam.IsPerfectOn(ground)) << "k=" << k;
    EXPECT_GE(fam.size(), 1u);
  }
}

TEST(ColoringTest, CertifiedRejectsHugeGround) {
  std::vector<Value> ground(100);
  for (int i = 0; i < 100; ++i) ground[i] = i;
  auto fam = ColoringFamily::Certified(ground, 5, 1, /*max_subsets=*/1000);
  EXPECT_EQ(fam.status().code(), StatusCode::kResourceExhausted);
}

TEST(ColoringTest, CertifiedTinyGround) {
  // Ground smaller than k: no k-subsets, trivially certified.
  std::vector<Value> ground = {10, 20};
  auto fam = ColoringFamily::Certified(ground, 3, 1).ValueOrDie();
  EXPECT_TRUE(fam.certified());
  // Ground exactly k: needs one injective member.
  std::vector<Value> ground3 = {10, 20, 30};
  auto fam3 = ColoringFamily::Certified(ground3, 3, 1).ValueOrDie();
  EXPECT_TRUE(fam3.IsPerfectOn(ground3));
}

// Seeds of ColoringFamily::Certified(ground, k, 0xC0FFEE) on the ground
// {i * 7919 - 3000 : 0 <= i < n}, recorded from the earlier construction
// that stored every k-subset as its own vector. The family (and so every
// Theorem 2 answer) must stay seed-for-seed identical across rewrites.
struct GoldenFamily {
  int n;
  int k;
  std::vector<uint64_t> seeds;
};

const GoldenFamily kGoldenFamilies[] = {
    {30, 2, {
         0xca8216fa9058d0faull, 0xece45babce870479ull, 0x87be93a4a16a73cbull,
         0x5a71c08957a50d44ull, 0xc345d6e168ad2c78ull, 0xe47df32a3a624293ull,
         0x08cab724ca100235ull,
     }},
    {30, 3, {
         0xca8216fa9058d0faull, 0xece45babce870479ull, 0x87be93a4a16a73cbull,
         0x5a71c08957a50d44ull, 0xc345d6e168ad2c78ull, 0xe47df32a3a624293ull,
         0x08cab724ca100235ull, 0xdfa4529422a994bfull, 0x1a4c7945ef3e2887ull,
         0xa3148d0ad0ad2a9aull, 0x62d1d0d9d4002759ull, 0x507065d804077edcull,
         0x75a5a799430a358cull, 0xdfaa618f05e814adull, 0xdfdc1f1e3fd80ee5ull,
         0xaa4f1b082af8064full, 0x2dd35b22825e9e21ull, 0x8258297e8b33077cull,
         0x9547a3d84c96afb2ull, 0x14a2e2d414d15aceull, 0x401d2708b1a6f24cull,
         0x07e7425232185df7ull, 0x40f1cc64d4f6e966ull, 0x62fbd74c6cf6756cull,
         0xd15193d6622b12a9ull, 0xc3cac3e16d161a69ull, 0x23f31dfc3ecb73d1ull,
         0x1e19e3078153254bull,
     }},
    {40, 3, {
         0xca8216fa9058d0faull, 0xece45babce870479ull, 0x87be93a4a16a73cbull,
         0x5a71c08957a50d44ull, 0xc345d6e168ad2c78ull, 0xe47df32a3a624293ull,
         0x08cab724ca100235ull, 0xdfa4529422a994bfull, 0x1a4c7945ef3e2887ull,
         0xa3148d0ad0ad2a9aull, 0x62d1d0d9d4002759ull, 0x507065d804077edcull,
         0x75a5a799430a358cull, 0xdfaa618f05e814adull, 0xdfdc1f1e3fd80ee5ull,
         0xaa4f1b082af8064full, 0x2dd35b22825e9e21ull, 0x8258297e8b33077cull,
         0x9547a3d84c96afb2ull, 0x14a2e2d414d15aceull, 0x401d2708b1a6f24cull,
         0x07e7425232185df7ull, 0x40f1cc64d4f6e966ull, 0x62fbd74c6cf6756cull,
         0xb6e2c223523178d0ull, 0xd15193d6622b12a9ull, 0xc3cac3e16d161a69ull,
         0x23f31dfc3ecb73d1ull, 0xa9827391bec8a294ull, 0x1e19e3078153254bull,
         0xb3de8fa80a8312a2ull,
     }},
    {600, 2, {
         0xca8216fa9058d0faull, 0xece45babce870479ull, 0x87be93a4a16a73cbull,
         0x5a71c08957a50d44ull, 0xc345d6e168ad2c78ull, 0xe47df32a3a624293ull,
         0x08cab724ca100235ull, 0xdfa4529422a994bfull, 0x1a4c7945ef3e2887ull,
         0xa3148d0ad0ad2a9aull, 0x62d1d0d9d4002759ull, 0x507065d804077edcull,
         0x75a5a799430a358cull, 0xdfaa618f05e814adull, 0xdfdc1f1e3fd80ee5ull,
         0xaa4f1b082af8064full, 0x2dd35b22825e9e21ull,
     }},
};

TEST(ColoringTest, CertifiedMatchesGoldenSeeds) {
  for (const GoldenFamily& golden : kGoldenFamilies) {
    SCOPED_TRACE(testing::Message() << "n=" << golden.n << " k=" << golden.k);
    std::vector<Value> ground;
    for (int i = 0; i < golden.n; ++i) ground.push_back(Value{i} * 7919 - 3000);
    auto fam = ColoringFamily::Certified(ground, golden.k, 0xC0FFEE);
    ASSERT_TRUE(fam.ok()) << fam.status();
    ASSERT_EQ(fam.value().size(), golden.seeds.size());
    for (size_t m = 0; m < golden.seeds.size(); ++m) {
      EXPECT_EQ(fam.value().seed(m), golden.seeds[m]) << "member " << m;
    }
  }
}

TEST(ColoringTest, InjectiveOnDetectsCollisions) {
  auto fam = ColoringFamily::MonteCarlo(2, 1.0, 9);
  // With k=2 and 3 values, injectivity is impossible.
  EXPECT_FALSE(fam.InjectiveOn(0, {1, 2, 3}));
}

TEST(ColoringTest, MonteCarloHitsWitnessWithHighProbability) {
  // Empirical sanity check of the paper's probability bound: for a fixed
  // witness set of size k, at least one member of a c=3 family should be
  // injective on it (failure probability <= e^-3 ~ 0.05; seeds chosen fixed).
  for (int k = 2; k <= 5; ++k) {
    std::vector<Value> witness;
    for (int i = 0; i < k; ++i) witness.push_back(1000 + i * 31337);
    auto fam = ColoringFamily::MonteCarlo(k, 3.0, 1234 + k);
    bool hit = false;
    for (size_t m = 0; m < fam.size() && !hit; ++m) {
      hit = fam.InjectiveOn(m, witness);
    }
    EXPECT_TRUE(hit) << "k=" << k;
  }
}

}  // namespace
}  // namespace paraquery
