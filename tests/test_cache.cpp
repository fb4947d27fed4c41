// Cache model tests: hit/miss behaviour, replacement policies, geometry
// sweeps (TEST_P) and the disabled-cache contract.
#include <gtest/gtest.h>

#include "cache/cache.hpp"

namespace audo::cache {
namespace {

CacheConfig direct_mapped(u32 size = 1024, unsigned line = 32) {
  return CacheConfig{true, size, 1, line, Replacement::kLru};
}

TEST(Cache, MissThenHit) {
  Cache cache(direct_mapped());
  EXPECT_FALSE(cache.access(0x1000));
  cache.fill(0x1000);
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x101F));   // same 32-byte line
  EXPECT_FALSE(cache.access(0x1020));  // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, DirectMappedConflict) {
  Cache cache(direct_mapped(1024));
  cache.fill(0x0);
  EXPECT_TRUE(cache.access(0x0));
  // 0x400 maps to the same set (1 KiB direct mapped) -> evicts.
  EXPECT_TRUE(cache.fill(0x400));
  EXPECT_FALSE(cache.access(0x0));
  EXPECT_TRUE(cache.access(0x400));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Cache, TwoWayAvoidsConflict) {
  Cache cache(CacheConfig{true, 1024, 2, 32, Replacement::kLru});
  cache.fill(0x0);
  cache.fill(0x400);  // same set, second way
  EXPECT_TRUE(cache.access(0x0));
  EXPECT_TRUE(cache.access(0x400));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, LruEvictsLeastRecent) {
  Cache cache(CacheConfig{true, 128, 2, 32, Replacement::kLru});
  // 2 sets of 2 ways. Set 0 lines: 0x0, 0x40, 0x80, ...
  cache.fill(0x0);
  cache.fill(0x80);
  EXPECT_TRUE(cache.access(0x0));   // 0x80 becomes LRU
  cache.fill(0x100);                // evicts 0x80
  EXPECT_TRUE(cache.probe(0x0));
  EXPECT_FALSE(cache.probe(0x80));
  EXPECT_TRUE(cache.probe(0x100));
}

TEST(Cache, PlruTreeBehavesSanely) {
  Cache cache(CacheConfig{true, 256, 4, 32, Replacement::kPlruTree});
  // 2 sets, 4 ways; set stride = 64 bytes.
  cache.fill(0x000);
  cache.fill(0x100);
  cache.fill(0x200);
  cache.fill(0x300);
  // Tree PLRU is an approximation of LRU: after touching way 0
  // (left/left) and way 2 (right/left), the root points at the left half
  // and its subtree bit at way 1 — the deterministic PLRU victim.
  EXPECT_TRUE(cache.access(0x000));
  EXPECT_TRUE(cache.access(0x200));
  cache.fill(0x400);
  EXPECT_FALSE(cache.probe(0x100));
  EXPECT_TRUE(cache.probe(0x000));
  EXPECT_TRUE(cache.probe(0x200));
  EXPECT_TRUE(cache.probe(0x300));
  EXPECT_TRUE(cache.probe(0x400));
}

TEST(Cache, RoundRobinCyclesWays) {
  Cache cache(CacheConfig{true, 128, 2, 32, Replacement::kRoundRobin});
  cache.fill(0x0);
  cache.fill(0x80);
  cache.fill(0x100);  // evicts way 0 (0x0)
  EXPECT_FALSE(cache.probe(0x0));
  EXPECT_TRUE(cache.probe(0x80));
  cache.fill(0x180);  // evicts way 1 (0x80)
  EXPECT_FALSE(cache.probe(0x80));
  EXPECT_TRUE(cache.probe(0x100));
}

TEST(Cache, DisabledCacheNeverHits) {
  Cache cache(CacheConfig{false, 1024, 2, 32, Replacement::kLru});
  EXPECT_FALSE(cache.access(0x1000));
  cache.fill(0x1000);
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_FALSE(cache.probe(0x1000));
}

TEST(Cache, InvalidateAllForgets) {
  Cache cache(direct_mapped());
  cache.fill(0x40);
  EXPECT_TRUE(cache.probe(0x40));
  cache.invalidate_all();
  EXPECT_FALSE(cache.probe(0x40));
}

TEST(Cache, FillIsIdempotentForPresentLines) {
  Cache cache(CacheConfig{true, 128, 2, 32, Replacement::kLru});
  cache.fill(0x0);
  EXPECT_FALSE(cache.fill(0x0));  // no eviction, no duplicate
  cache.fill(0x80);
  EXPECT_TRUE(cache.probe(0x0));
  EXPECT_TRUE(cache.probe(0x80));
}

TEST(Cache, ConfigValidity) {
  EXPECT_TRUE(direct_mapped().valid());
  CacheConfig bad = direct_mapped();
  bad.size_bytes = 1000;  // not pow2
  EXPECT_FALSE(bad.valid());
  CacheConfig disabled;
  disabled.enabled = false;
  disabled.size_bytes = 12345;
  EXPECT_TRUE(disabled.valid());  // geometry irrelevant when off
}

struct Geometry {
  u32 size;
  unsigned ways;
  unsigned line;
  Replacement repl;
};

// Names the ctest case after the geometry; gtest's default printout dumps
// the struct's bytes, padding included, which differ between builds.
void PrintTo(const Geometry& g, std::ostream* os) {
  const char* repl = g.repl == Replacement::kLru        ? "lru"
                     : g.repl == Replacement::kPlruTree ? "plru"
                                                        : "rr";
  *os << g.size << "B_" << g.ways << "way_" << g.line << "B_" << repl;
}

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  const Geometry g = GetParam();
  Cache cache(CacheConfig{true, g.size, g.ways, g.line, g.repl});
  // Sequential working set of half the cache size.
  const u32 span = g.size / 2;
  for (u32 a = 0; a < span; a += g.line) {
    if (!cache.access(0x80000000 + a)) cache.fill(0x80000000 + a);
  }
  cache.reset_stats();
  for (int pass = 0; pass < 4; ++pass) {
    for (u32 a = 0; a < span; a += g.line) {
      EXPECT_TRUE(cache.access(0x80000000 + a))
          << "size=" << g.size << " ways=" << g.ways << " line=" << g.line;
    }
  }
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST_P(CacheGeometry, WorkingSetTwiceTheCacheThrashesLru) {
  const Geometry g = GetParam();
  Cache cache(CacheConfig{true, g.size, g.ways, g.line, g.repl});
  const u32 span = g.size * 2;
  // Sequential sweep with LRU on a 2x working set misses every time.
  for (int pass = 0; pass < 3; ++pass) {
    for (u32 a = 0; a < span; a += g.line) {
      if (!cache.access(0x80000000 + a)) cache.fill(0x80000000 + a);
    }
  }
  if (g.repl == Replacement::kLru) {
    EXPECT_EQ(cache.stats().hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Values(Geometry{512, 1, 16, Replacement::kLru},
                      Geometry{1024, 2, 32, Replacement::kLru},
                      Geometry{4096, 2, 32, Replacement::kLru},
                      Geometry{4096, 4, 32, Replacement::kPlruTree},
                      Geometry{8192, 4, 64, Replacement::kLru},
                      Geometry{16384, 2, 32, Replacement::kRoundRobin},
                      Geometry{1024, 2, 32, Replacement::kPlruTree}));

}  // namespace
}  // namespace audo::cache
