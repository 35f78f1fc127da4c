#include "src/query/box_cache.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/core/engine.h"
#include "src/query/query_cache.h"

namespace loggrep {
namespace {

std::string SampleBoxBytes(int salt = 0) {
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "INFO request id:REQ_" + std::to_string(i * 7 + salt) +
            " served bytes:" + std::to_string(i * 100) + "\n";
  }
  LogGrepEngine engine;
  return engine.CompressBlock(text);
}

// ---- BoxKey identity --------------------------------------------------------

TEST(BoxKeyTest, ContentKeysDifferPerContent) {
  const BoxKey a = BoxKey::FromBytes("hello world");
  const BoxKey b = BoxKey::FromBytes("hello worle");
  const BoxKey a2 = BoxKey::FromBytes("hello world");
  EXPECT_TRUE(a == a2);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.ToString(), b.ToString());
}

TEST(BoxKeyTest, SizeIsPartOfTheIdentity) {
  // Even if both hashes collided, differing sizes keep the keys distinct.
  BoxKey a = BoxKey::FromBytes("aaaa");
  BoxKey forged = a;
  forged.size += 1;
  EXPECT_FALSE(a == forged);
}

TEST(BoxKeyTest, SequenceKeysNeverCollideWithContentKeys) {
  // Sequence keys use a sentinel size no serialized box can reach.
  const BoxKey seq = BoxKey::ForSequence(1, 0);
  EXPECT_EQ(seq.size, UINT64_MAX);
  const BoxKey content = BoxKey::FromBytes(SampleBoxBytes());
  EXPECT_FALSE(seq == content);
}

TEST(BoxKeyTest, SequenceKeysDifferAcrossNamespacesAndSeqs) {
  const uint64_t ns1 = BoxKey::NextNamespaceId();
  const uint64_t ns2 = BoxKey::NextNamespaceId();
  EXPECT_NE(ns1, ns2);
  EXPECT_FALSE(BoxKey::ForSequence(ns1, 0) == BoxKey::ForSequence(ns2, 0));
  EXPECT_FALSE(BoxKey::ForSequence(ns1, 0) == BoxKey::ForSequence(ns1, 1));
  EXPECT_TRUE(BoxKey::ForSequence(ns1, 3) == BoxKey::ForSequence(ns1, 3));
}

// ---- OpenedBox --------------------------------------------------------------

TEST(OpenedBoxTest, ParsesAndPinsBytes) {
  auto opened = OpenedBox::Open(SampleBoxBytes());
  ASSERT_TRUE(opened.ok());
  EXPECT_GT((*opened)->bytes().size(), 0u);
  EXPECT_EQ((*opened)->box().meta().total_lines, 64u);
}

TEST(OpenedBoxTest, RejectsGarbage) {
  EXPECT_FALSE(OpenedBox::Open("definitely not a capsule box").ok());
}

// ---- CachedCapsule ----------------------------------------------------------

TEST(CachedCapsuleTest, LazySplitsViewIntoBlob) {
  const std::string blob = "alpha\nbeta\ngamma\n";
  CachedCapsule capsule{std::string(blob)};
  const auto& splits = capsule.splits();
  ASSERT_EQ(splits.size(), 3u);
  EXPECT_EQ(splits[0], "alpha");
  EXPECT_EQ(splits[2], "gamma");
  // Views must point inside the capsule's own blob.
  EXPECT_GE(splits[0].data(), capsule.blob().data());
  EXPECT_LE(splits[2].data() + splits[2].size(),
            capsule.blob().data() + capsule.blob().size());
}

// ---- BoxCache ---------------------------------------------------------------

TEST(BoxCacheTest, BoxMissThenHitLoadsOnce) {
  BoxCache cache;
  const std::string bytes = SampleBoxBytes();
  const BoxKey key = BoxKey::FromBytes(bytes);
  int loads = 0;
  auto loader = [&]() -> Result<std::string> {
    ++loads;
    return bytes;
  };
  bool was_hit = true;
  auto first = cache.GetOrOpenBox(key, loader, &was_hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(was_hit);
  auto second = cache.GetOrOpenBox(key, loader, &was_hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(first->get(), second->get());  // same resident object

  const BoxCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.box_hits, 1u);
  EXPECT_EQ(stats.box_misses, 1u);
  EXPECT_GT(stats.bytes_saved, 0u);
}

TEST(BoxCacheTest, CapsuleMissThenHitLoadsOnce) {
  BoxCache cache;
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  int loads = 0;
  auto loader = [&]() -> Result<std::string> {
    ++loads;
    return std::string("decompressed capsule payload");
  };
  bool was_hit = true;
  auto first = cache.GetOrLoadCapsule(key, 7, loader, &was_hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(was_hit);
  auto second = cache.GetOrLoadCapsule(key, 7, loader, &was_hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(was_hit);
  EXPECT_EQ(loads, 1);
  // A different capsule id is a different entry.
  auto third = cache.GetOrLoadCapsule(key, 8, loader, &was_hit);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(loads, 2);
}

TEST(BoxCacheTest, LoaderErrorIsNotCached) {
  BoxCache cache;
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  auto failing = []() -> Result<std::string> {
    return Internal("disk on fire");
  };
  EXPECT_FALSE(cache.GetOrLoadCapsule(key, 0, failing).ok());
  // A later good load must succeed and be a miss (nothing poisoned).
  bool was_hit = true;
  auto ok = cache.GetOrLoadCapsule(
      key, 0, []() -> Result<std::string> { return std::string("fine"); },
      &was_hit);
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ((*ok)->blob(), "fine");
}

TEST(BoxCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  BoxCacheOptions options;
  options.byte_budget = 4096;
  options.shards = 1;  // deterministic LRU order
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  auto blob = []() -> Result<std::string> { return std::string(1500, 'z'); };

  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 1, blob).ok());
  // Touch capsule 0 so capsule 1 is the LRU victim.
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 2, blob).ok());

  const BoxCacheStats stats = cache.Stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_in_use, options.byte_budget);

  bool was_hit = false;
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob, &was_hit).ok());
  EXPECT_TRUE(was_hit);  // survived: it was promoted
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 1, blob, &was_hit).ok());
  EXPECT_FALSE(was_hit);  // evicted: reloads
}

TEST(BoxCacheTest, OversizedEntryIsStillAdmitted) {
  BoxCacheOptions options;
  options.byte_budget = 64;  // smaller than any entry
  options.shards = 1;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  bool was_hit = true;
  auto huge = cache.GetOrLoadCapsule(
      key, 0, []() -> Result<std::string> { return std::string(1 << 16, 'h'); },
      &was_hit);
  ASSERT_TRUE(huge.ok());
  EXPECT_FALSE(was_hit);
  // Never evict the freshest entry: it is immediately warm.
  ASSERT_TRUE(cache
                  .GetOrLoadCapsule(
                      key, 0,
                      []() -> Result<std::string> { return std::string(); },
                      &was_hit)
                  .ok());
  EXPECT_TRUE(was_hit);
}

TEST(BoxCacheTest, PinnedEntriesSurviveEviction) {
  BoxCacheOptions options;
  options.byte_budget = 2048;
  options.shards = 1;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);

  auto pinned = cache.GetOrLoadCapsule(key, 0, []() -> Result<std::string> {
    return std::string(1024, 'p');
  });
  ASSERT_TRUE(pinned.ok());
  const std::string_view view = (*pinned)->blob();

  // Push the pinned entry out...
  for (uint32_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(cache
                    .GetOrLoadCapsule(key, id,
                                      []() -> Result<std::string> {
                                        return std::string(1024, 'q');
                                      })
                    .ok());
  }
  bool was_hit = true;
  ASSERT_TRUE(cache
                  .GetOrLoadCapsule(key, 0,
                                    []() -> Result<std::string> {
                                      return std::string(1024, 'r');
                                    },
                                    &was_hit)
                  .ok());
  EXPECT_FALSE(was_hit);  // evicted, reloaded
  // ...yet the pinned shared_ptr keeps its bytes alive and intact.
  EXPECT_EQ(view.size(), 1024u);
  EXPECT_EQ(view[0], 'p');
  EXPECT_EQ(view[1023], 'p');
}

// ---- result entries (the query cache, §3) ----------------------------------

QueryHits OneHit(uint64_t line, std::string text) {
  return QueryHits{{line, std::move(text)}};
}

TEST(BoxCacheResultTest, MissThenHitAndClearResultsKeepsBoxes) {
  BoxCache cache;
  const BoxKey key = BoxKey::FromBytes(SampleBoxBytes());
  EXPECT_EQ(cache.LookupResult(key, "q"), nullptr);
  cache.InsertResult(key, "q", CachedQuery{OneHit(3, "line three"), {}});
  const auto hit = cache.LookupResult(key, "q");
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->hits.size(), 1u);
  EXPECT_EQ(hit->hits[0].first, 3u);
  // Another command, or the same command against another box, is a miss.
  EXPECT_EQ(cache.LookupResult(key, "q2"), nullptr);
  EXPECT_EQ(cache.LookupResult(BoxKey::FromBytes("other"), "q"), nullptr);

  BoxCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 3u);
  // Result lookups are not box/capsule lookups.
  EXPECT_EQ(stats.box_hits + stats.box_misses + stats.capsule_hits +
                stats.capsule_misses,
            0u);

  // ClearResults drops results only: an opened box stays warm.
  const std::string bytes = SampleBoxBytes();
  ASSERT_TRUE(cache
                  .GetOrOpenBox(key, [&]() -> Result<std::string> {
                    return bytes;
                  })
                  .ok());
  cache.ClearResults();
  EXPECT_EQ(cache.LookupResult(key, "q"), nullptr);
  bool was_hit = false;
  auto never_loads = []() -> Result<std::string> { return std::string(); };
  ASSERT_TRUE(cache.GetOrOpenBox(key, never_loads, &was_hit).ok());
  EXPECT_TRUE(was_hit);
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
}

// A result is a pure function of (box, command), so a second insert under a
// resident key (a racing worker) keeps the resident entry.
TEST(BoxCacheResultTest, InsertUnderResidentKeyKeepsResident) {
  BoxCache cache;
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  cache.InsertResult(key, "q", CachedQuery{OneHit(1, "first"), {}});
  const auto pinned = cache.LookupResult(key, "q");
  cache.InsertResult(key, "q", CachedQuery{OneHit(1, "first"), {}});
  const auto again = cache.LookupResult(key, "q");
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again.get(), pinned.get());
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(BoxCacheResultTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Budget sized to hold roughly two entries; inserting a third must evict
  // the least recently used one.
  BoxCacheOptions options;
  options.byte_budget = 2000;
  options.shards = 1;  // deterministic LRU order
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  const std::string big(512, 'x');
  cache.InsertResult(key, "a", CachedQuery{OneHit(1, big), {}});
  cache.InsertResult(key, "b", CachedQuery{OneHit(2, big), {}});
  ASSERT_NE(cache.LookupResult(key, "a"), nullptr);  // "b" is LRU now
  cache.InsertResult(key, "c", CachedQuery{OneHit(3, big), {}});
  const BoxCacheStats stats = cache.Stats();
  EXPECT_GE(stats.result_evictions, 1u);
  EXPECT_EQ(stats.evictions, 0u);  // counts boxes and capsules only
  EXPECT_LE(stats.bytes_in_use, options.byte_budget);
  EXPECT_EQ(cache.LookupResult(key, "b"), nullptr);
  EXPECT_NE(cache.LookupResult(key, "a"), nullptr);
  EXPECT_NE(cache.LookupResult(key, "c"), nullptr);
}

TEST(BoxCacheResultTest, KeepsFreshestEntryEvenWhenOverBudget) {
  // A result larger than the whole budget is still usable until the next
  // insert (never evict the freshest entry).
  BoxCacheOptions options;
  options.byte_budget = 64;
  options.shards = 1;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  cache.InsertResult(key, "huge",
                     CachedQuery{OneHit(1, std::string(4096, 'y')), {}});
  EXPECT_NE(cache.LookupResult(key, "huge"), nullptr);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(BoxCacheResultTest, StoresLocatorSnapshot) {
  BoxCache cache;
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  CachedQuery entry;
  entry.hits = OneHit(7, "hit");
  entry.locator.capsules_decompressed = 5;
  entry.locator.bytes_decompressed = 1234;
  cache.InsertResult(key, "q", entry);
  const auto hit = cache.LookupResult(key, "q");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->locator.capsules_decompressed, 5u);
  EXPECT_EQ(hit->locator.bytes_decompressed, 1234u);
}

TEST(BoxCacheResultTest, SixtyFourBitLineNumbersSurviveRoundTrip) {
  BoxCache cache;
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  const uint64_t line = (5ull << 32) + 17;  // > UINT32_MAX
  cache.InsertResult(key, "q", CachedQuery{OneHit(line, "far line"), {}});
  const auto hit = cache.LookupResult(key, "q");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->hits[0].first, line);
}

// Shared across runs of this test binary; Reset() isolates each use without
// throwing away the registered cells (handles stay valid, per metrics.h).
MetricsRegistry& SharedMetrics() {
  static MetricsRegistry registry;
  registry.Reset();
  return registry;
}

TEST(BoxCacheTest, MetricsRegistryMirrorsCounters) {
  MetricsRegistry& metrics = SharedMetrics();
  BoxCacheOptions options;
  options.metrics = &metrics;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  auto blob = []() -> Result<std::string> { return std::string(100, 'm'); };
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.misses")->value(), 1u);
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.hits")->value(), 1u);
  EXPECT_GE(metrics.GetOrCreate("query.box_cache.bytes_saved")->value(), 100u);
  // Result entries are counted apart: they leave the box counters alone.
  EXPECT_EQ(cache.LookupResult(key, "q"), nullptr);
  cache.InsertResult(key, "q", CachedQuery{OneHit(1, "r"), {}});
  EXPECT_NE(cache.LookupResult(key, "q"), nullptr);
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.misses")->value(), 1u);
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.hits")->value(), 1u);
}

TEST(BoxCacheTest, ResultEntriesLeaveEvictionAndBytesCountersAlone) {
  // The budget covers every kind, but "query.box_cache.evictions" and
  // "query.box_cache.bytes_in_use_hwm" describe boxes and capsules only.
  MetricsRegistry& metrics = SharedMetrics();
  BoxCacheOptions options;
  options.byte_budget = 2000;
  options.shards = 1;  // deterministic LRU order
  options.metrics = &metrics;
  BoxCache cache(options);
  const BoxKey key = BoxKey::ForSequence(BoxKey::NextNamespaceId(), 0);
  auto blob = []() -> Result<std::string> { return std::string(100, 'm'); };
  ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());
  const std::string big(512, 'x');
  for (const char* command : {"a", "b", "c"}) {
    cache.InsertResult(key, command, CachedQuery{OneHit(1, big), {}});
    ASSERT_TRUE(cache.GetOrLoadCapsule(key, 0, blob).ok());  // keep it hot
  }
  const BoxCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.result_evictions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache.LookupResult(key, "a"), nullptr);
  EXPECT_EQ(metrics.GetOrCreate("query.box_cache.evictions")->value(), 0u);
  const uint64_t hwm =
      metrics.GetOrCreate("query.box_cache.bytes_in_use_hwm")->value();
  EXPECT_GE(hwm, 100u);
  EXPECT_LT(hwm, big.size());  // the capsule's charge, no result bytes
  EXPECT_GT(stats.bytes_in_use, 2 * big.size());  // results still resident

  cache.ClearResults();
  EXPECT_LT(cache.Stats().bytes_in_use, big.size());
}

TEST(BoxCacheTest, ConcurrentMixedLoadsStayConsistent) {
  BoxCacheOptions options;
  options.byte_budget = 64 << 10;
  options.shards = 4;
  BoxCache cache(options);
  const uint64_t ns = BoxKey::NextNamespaceId();

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const uint32_t id = static_cast<uint32_t>((t + i) % 16);
        const BoxKey key = BoxKey::ForSequence(ns, id % 4);
        auto got = cache.GetOrLoadCapsule(key, id, [id]() -> Result<std::string> {
          return std::string(64 + id, static_cast<char>('a' + id % 26));
        });
        if (!got.ok() || (*got)->blob().size() != 64 + id ||
            (*got)->blob()[0] != static_cast<char>('a' + id % 26)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const BoxCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.capsule_hits + stats.capsule_misses,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_LE(stats.bytes_in_use,
            options.byte_budget + (64 + 16 + 128) * options.shards);
}

}  // namespace
}  // namespace loggrep
