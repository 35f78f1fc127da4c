#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>

#include "src/common/bloom.h"
#include "src/common/hash.h"
#include "src/core/engine.h"
#include "src/parser/template_miner.h"  // SplitLines
#include "src/parser/tokenizer.h"
#include "src/query/query_parser.h"
#include "src/store/log_archive.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace loggrep {
namespace {

// ---- bloom filter ------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000, 10);
  std::vector<std::string> items;
  for (int i = 0; i < 1000; ++i) {
    items.push_back("item-" + std::to_string(i * 7919));
    bloom.Add(items.back());
  }
  for (const std::string& item : items) {
    EXPECT_TRUE(bloom.MayContain(item)) << item;
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bloom(2000, 10);
  for (int i = 0; i < 2000; ++i) {
    bloom.Add("present-" + std::to_string(i));
  }
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain("absent-" + std::to_string(i))) {
      ++false_positives;
    }
  }
  // 10 bits/item gives ~1% theoretical; allow generous slack.
  EXPECT_LT(false_positives, 500);
  EXPECT_LT(bloom.FillRatio(), 0.7);
}

TEST(BloomFilterTest, SerializationRoundTrip) {
  BloomFilter bloom(100, 8);
  bloom.Add("alpha");
  bloom.Add("beta");
  ByteWriter w;
  bloom.WriteTo(w);
  ByteReader r(w.data());
  auto restored = BloomFilter::ReadFrom(r);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->MayContain("alpha"));
  EXPECT_TRUE(restored->MayContain("beta"));
  EXPECT_FALSE(restored->MayContain("gamma"));
}

TEST(BloomFilterTest, EmptyFilterFiltersNothing) {
  const BloomFilter bloom;
  EXPECT_TRUE(bloom.MayContain("anything"));
}

std::string Serialized(const BloomFilter& bloom) {
  ByteWriter w;
  bloom.WriteTo(w);
  return std::string(w.data());
}

TEST(BloomFilterTest, SizesRoundUpToAPowerOfTwo) {
  EXPECT_EQ(BloomFilter(1, 10).SizeBytes(), 8u);        // 64-bit floor
  EXPECT_EQ(BloomFilter(1000, 10).SizeBytes(), 2048u);  // 10000 -> 16384 bits
  EXPECT_EQ(BloomFilter(1638, 10).SizeBytes(), 2048u);  // 16380 -> 16384 bits
}

TEST(BloomFilterTest, FoldedFilterEqualsFilterBuiltAtFoldedSize) {
  std::vector<std::string> items;
  for (int i = 0; i < 700; ++i) {
    items.push_back("item-" + std::to_string(i * 7919));
  }
  BloomFilter folded(1 << 16, 10);  // sized for ~94x more items than added
  for (const std::string& item : items) {
    folded.Add(item);
  }
  const size_t before = folded.SizeBytes();
  folded.FoldToFit(10);
  // 700 items x 10 bits = 7000 bits -> the smallest power of two above.
  EXPECT_EQ(folded.SizeBytes(), 1024u) << "from " << before;

  BloomFilter direct(folded.SizeBytes() * 8 / 10, 10);
  ASSERT_EQ(direct.SizeBytes(), folded.SizeBytes());
  for (const std::string& item : items) {
    direct.Add(item);
  }
  EXPECT_EQ(Serialized(folded), Serialized(direct));
}

TEST(BloomFilterTest, NoFalseNegativesAfterFolding) {
  BloomFilter bloom(1 << 18, 10);
  std::vector<std::string> items;
  for (int i = 0; i < 5000; ++i) {
    items.push_back("shingle-" + std::to_string(i * 104729));
    bloom.Add(items.back());
  }
  bloom.FoldToFit(10);
  EXPECT_LT(bloom.SizeBytes(), size_t{1} << 18);
  for (const std::string& item : items) {
    EXPECT_TRUE(bloom.MayContain(item)) << item;
  }
}

TEST(BloomFilterTest, FoldStopsAtTheSixtyFourBitFloor) {
  BloomFilter bloom(1 << 12, 10);
  bloom.FoldToFit(10);  // no items at all
  EXPECT_EQ(bloom.SizeBytes(), 8u);
  BloomFilter unsized;
  unsized.FoldToFit(10);
  EXPECT_TRUE(unsized.empty());
}

// Filters written before sizes were rounded to powers of two have any bit
// count and index with `hash % nbits`; they must keep answering exactly as
// they did, and must not be folded. Reference implementation of that legacy rule:
std::vector<uint64_t> LegacyBits(std::string_view item, uint32_t k,
                                 uint64_t nbits) {
  const uint64_t h1 = Fnv1a64(item);
  const uint64_t h2 = Fnv1a64(item, 0x9E3779B97F4A7C15ULL) | 1;
  std::vector<uint64_t> bits;
  for (uint32_t i = 0; i < k; ++i) {
    bits.push_back((h1 + i * h2) % nbits);
  }
  return bits;
}

TEST(BloomFilterTest, LegacyNonPowerOfTwoFilterKeepsModuloIndexing) {
  constexpr uint32_t kHashes = 3;
  constexpr uint64_t kBytes = 10;  // 80 bits: not a power of two
  std::string bits(kBytes, '\0');
  for (std::string_view item : {"alpha", "beta", "conn"}) {
    for (uint64_t bit : LegacyBits(item, kHashes, kBytes * 8)) {
      bits[bit / 8] |= static_cast<char>(1u << (bit % 8));
    }
  }
  ByteWriter w;
  w.PutVarint(kHashes);
  w.PutLengthPrefixed(bits);
  ByteReader r(w.data());
  auto legacy = BloomFilter::ReadFrom(r);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_TRUE(legacy->MayContain("alpha"));
  EXPECT_TRUE(legacy->MayContain("beta"));
  EXPECT_TRUE(legacy->MayContain("conn"));
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string probe = "probe-" + std::to_string(i);
    bool expected = true;
    for (uint64_t bit : LegacyBits(probe, kHashes, kBytes * 8)) {
      expected = expected && (bits[bit / 8] & (1u << (bit % 8))) != 0;
    }
    EXPECT_EQ(legacy->MayContain(probe), expected) << probe;
    rejected += expected ? 0 : 1;
  }
  EXPECT_GT(rejected, 100);  // the pinned answers are not all "maybe"
  legacy->FoldToFit(1);
  EXPECT_EQ(legacy->SizeBytes(), kBytes);
  EXPECT_EQ(Serialized(*legacy), std::string(w.data()));
}

// ---- required keywords ----------------------------------------------------------

std::vector<std::string> Required(std::string_view command) {
  auto expr = ParseQuery(command);
  EXPECT_TRUE(expr.ok()) << command;
  return RequiredKeywords(**expr);
}

TEST(RequiredKeywordsTest, AndUnionsOrIntersectsNotDrops) {
  EXPECT_EQ(Required("alpha and beta"),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(Required("alpha or beta"), (std::vector<std::string>{}));
  EXPECT_EQ(Required("alpha gamma or beta gamma"),
            (std::vector<std::string>{"gamma"}));
  EXPECT_EQ(Required("alpha not beta"), (std::vector<std::string>{"alpha"}));
  EXPECT_EQ(Required("not beta"), (std::vector<std::string>{}));
}

// ---- archive ----------------------------------------------------------------------

class LogArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("loggrep_archive_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(LogArchiveTest, CreateAppendQuery) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  ASSERT_TRUE(archive->AppendBlock("first block alpha 1\nsecond line beta 2\n").ok());
  ASSERT_TRUE(archive->AppendBlock("third line alpha 3\nfourth line gamma 4\n").ok());
  EXPECT_EQ(archive->blocks().size(), 2u);
  EXPECT_EQ(archive->total_lines(), 4u);

  auto result = archive->Query("alpha");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->hits.size(), 2u);
  EXPECT_EQ(result->hits[0].first, 0u);  // global line numbers
  EXPECT_EQ(result->hits[0].second, "first block alpha 1");
  EXPECT_EQ(result->hits[1].first, 2u);
  EXPECT_EQ(result->hits[1].second, "third line alpha 3");
}

TEST_F(LogArchiveTest, ReopenPreservesEverything) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    ASSERT_TRUE(archive->AppendBlock("persistent entry omega 9\n").ok());
  }
  auto reopened = LogArchive::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->blocks().size(), 1u);
  auto result = reopened->Query("omega");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].second, "persistent entry omega 9");
}

TEST_F(LogArchiveTest, BlockPruningIsSoundAndEffective) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  // Ten blocks; the needle appears only in block 7.
  for (int b = 0; b < 10; ++b) {
    std::string text;
    for (int i = 0; i < 50; ++i) {
      text += "svc request " + std::to_string(b * 100 + i) + " handled ok\n";
    }
    if (b == 7) {
      text += "svc request 999 FAILED uniqueneedletoken here\n";
    }
    ASSERT_TRUE(archive->AppendBlock(text).ok());
  }
  auto result = archive->Query("uniqueneedletoken");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].second,
            "svc request 999 FAILED uniqueneedletoken here");
  // Bloom pruning should have skipped (almost) all other blocks.
  EXPECT_GE(result->blocks_pruned, 8u);
  EXPECT_LE(result->blocks_queried, 2u);
}

TEST_F(LogArchiveTest, PruningNeverDropsMatches) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  const DatasetSpec* spec = FindDataset("Hdfs");
  std::vector<std::string> texts;
  DatasetSpec varied = *spec;
  for (int b = 0; b < 4; ++b) {
    varied.seed = spec->seed + b;
    texts.push_back(LogGenerator(varied).Generate(8 * 1024));
    ASSERT_TRUE(archive->AppendBlock(texts.back()).ok());
  }
  // Compare against querying every block through a fresh engine.
  for (const std::string& query :
       {std::string("error and blk_884"), std::string("Received block"),
        std::string("zzzNOSUCH")}) {
    auto got = archive->Query(query);
    ASSERT_TRUE(got.ok());
    size_t expected = 0;
    LogGrepEngine engine;
    for (const std::string& text : texts) {
      auto r = engine.Query(engine.CompressBlock(text), query);
      ASSERT_TRUE(r.ok());
      expected += r->hits.size();
    }
    EXPECT_EQ(got->hits.size(), expected) << query;
  }
}

TEST_F(LogArchiveTest, WildcardAndShortKeywordsBypassBloom) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("status az9 fine 1\n").ok());
  // 3-char keyword: below shingle length, must still match via stamp path.
  auto short_kw = archive->Query("az9");
  ASSERT_TRUE(short_kw.ok());
  EXPECT_EQ(short_kw->hits.size(), 1u);
  // Wildcard keyword.
  auto wild = archive->Query("a?9");
  ASSERT_TRUE(wild.ok());
  EXPECT_EQ(wild->hits.size(), 1u);
}

TEST_F(LogArchiveTest, ParallelQueryMatchesSerial) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  DatasetSpec spec = *FindDataset("Ssh");
  for (int b = 0; b < 6; ++b) {
    spec.seed += 17;
    ASSERT_TRUE(archive->AppendBlock(LogGenerator(spec).Generate(16 * 1024)).ok());
  }
  for (const std::string& query :
       {std::string("Failed password and 183.62.140.253"),
        std::string("sshd not preauth"), std::string("zzzNOSUCH")}) {
    auto serial = archive->Query(query);
    auto parallel = archive->Query(query, {.threads = 4});
    ASSERT_TRUE(serial.ok()) << query;
    ASSERT_TRUE(parallel.ok()) << query;
    ASSERT_EQ(serial->hits.size(), parallel->hits.size()) << query;
    for (size_t i = 0; i < serial->hits.size(); ++i) {
      EXPECT_EQ(serial->hits[i].first, parallel->hits[i].first);
      EXPECT_EQ(serial->hits[i].second, parallel->hits[i].second);
    }
    EXPECT_EQ(serial->blocks_pruned, parallel->blocks_pruned);
  }
}

TEST_F(LogArchiveTest, StrictQueryFailsOnQuarantinedBlockSerialOrThreaded) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    for (const char* tag : {"alpha", "omega"}) {
      std::string text;
      for (int i = 0; i < 50; ++i) {
        text += std::string("statusfine ") + tag + " request-" +
                std::to_string(i) + "\n";
      }
      ASSERT_TRUE(archive->AppendBlock(text).ok());
    }
  }
  std::ofstream(dir_ + "/" + LogArchive::BlockFileName(1)) << "garbage";
  {
    // A degraded query quarantines the corrupt block and answers from the
    // healthy one.
    auto archive = LogArchive::Open(dir_);
    ASSERT_TRUE(archive.ok());
    auto degraded = archive->Query("statusfine");
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_EQ(degraded->hits.size(), 50u);
    ASSERT_EQ(degraded->partial.failures.size(), 1u);
    EXPECT_TRUE(degraded->partial.failures[0].newly_quarantined);
  }
  auto archive = LogArchive::Open(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_NE(archive->quarantine().Find(1), nullptr);
  // Strict mode is complete-or-error however the blocks are scheduled.
  for (const size_t threads : {0, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto strict =
        archive->Query("statusfine", {.degrade = false, .threads = threads});
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kUnavailable);
    // Degraded mode reports the standing hole either way.
    auto degraded = archive->Query("statusfine", {.threads = threads});
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
    EXPECT_EQ(degraded->hits.size(), 50u);
    ASSERT_EQ(degraded->partial.failures.size(), 1u);
    EXPECT_FALSE(degraded->partial.failures[0].newly_quarantined);
  }
}

TEST_F(LogArchiveTest, CreateTwiceFails) {
  auto first = LogArchive::Create(dir_);
  ASSERT_TRUE(first.ok());
  auto second = LogArchive::Create(dir_);
  EXPECT_FALSE(second.ok());
}

TEST_F(LogArchiveTest, OpenMissingFails) {
  auto missing = LogArchive::Open(dir_ + "_nope");
  EXPECT_FALSE(missing.ok());
}

TEST_F(LogArchiveTest, EmptyArchiveQueries) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  auto result = archive->Query("anything");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->hits.empty());
  EXPECT_EQ(result->blocks_queried, 0u);
}

// ---- crash safety / recovery ------------------------------------------------

TEST_F(LogArchiveTest, OpenDropsTrailingEntriesWithMissingBlocks) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    for (int b = 0; b < 3; ++b) {
      ASSERT_TRUE(
          archive->AppendBlock("block " + std::to_string(b) + " data\n").ok());
    }
  }
  // Simulate a lost tail: the last block file vanishes, manifest keeps it.
  ASSERT_TRUE(std::filesystem::remove(dir_ + "/block-2.lgc"));
  auto recovered = LogArchive::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->blocks().size(), 2u);
  auto result = recovered->Query("data");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 2u);  // no late failure at query time
  // The truncation was persisted: a second Open agrees without repair.
  auto again = LogArchive::Open(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->blocks().size(), 2u);
}

TEST_F(LogArchiveTest, OpenRejectsInteriorHole) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    for (int b = 0; b < 3; ++b) {
      ASSERT_TRUE(
          archive->AppendBlock("block " + std::to_string(b) + " data\n").ok());
    }
  }
  ASSERT_TRUE(std::filesystem::remove(dir_ + "/block-1.lgc"));
  auto opened = LogArchive::Open(dir_);
  EXPECT_FALSE(opened.ok());  // a hole is corruption, not a recoverable tail
}

TEST_F(LogArchiveTest, OpenSweepsTempAndOrphanFiles) {
  {
    auto archive = LogArchive::Create(dir_);
    ASSERT_TRUE(archive.ok());
    ASSERT_TRUE(archive->AppendBlock("kept entry sigma 1\n").ok());
  }
  // Droppings of a crashed commit: stray temps + an unreferenced block file.
  for (const char* name :
       {"archive.manifest.tmp", "block-5.lgc.tmp", "block-7.lgc"}) {
    std::ofstream(dir_ + "/" + name) << "garbage";
  }
  auto recovered = LogArchive::Open(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->blocks().size(), 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/archive.manifest.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/block-5.lgc.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/block-7.lgc"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/block-0.lgc"));
  auto result = recovered->Query("sigma");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 1u);
}

TEST_F(LogArchiveTest, CommitKillPointsLeaveOldStateVisible) {
  for (const CommitKillPoint point : {CommitKillPoint::kBlockTmpWritten,
                                      CommitKillPoint::kBlockRenamed,
                                      CommitKillPoint::kManifestTmpWritten}) {
    const std::string dir = dir_ + "_" + CommitKillPointName(point);
    std::filesystem::remove_all(dir);
    auto archive = LogArchive::Create(dir);
    ASSERT_TRUE(archive.ok());
    ASSERT_TRUE(archive->AppendBlock("survivor entry tau 1\n").ok());

    // A commit that dies at `point` must not disturb the committed state.
    const std::string text = "victim entry upsilon 2\n";
    BlockInfo info = BuildBlockSummary(text, 10);
    LogGrepEngine engine;
    Status s = archive->CommitCompressedBlock(
        engine.CompressBlock(text), std::move(info),
        [point](CommitKillPoint at) { return at == point; });
    EXPECT_FALSE(s.ok()) << CommitKillPointName(point);
    EXPECT_EQ(archive->blocks().size(), 1u);  // in-memory state rolled back

    auto reopened = LogArchive::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->blocks().size(), 1u) << CommitKillPointName(point);
    auto result = reopened->Query("tau");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->hits.size(), 1u);
    // No commit droppings survive recovery.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      EXPECT_TRUE(name == "archive.manifest" || name == "block-0.lgc")
          << CommitKillPointName(point) << " left " << name;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST_F(LogArchiveTest, ManifestWriteIsAtomicOnSerialAppend) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("atomic entry phi 1\n").ok());
  // tmp+rename protocol: after a successful append no temp files remain.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }
}

// ---- 64-bit global line numbers (regression) -------------------------------

TEST_F(LogArchiveTest, GlobalLineNumbersPastFourBillionDoNotWrap) {
  // Regression: hits used to be narrowed through a uint32_t, so a block
  // starting past ~4 billion lines reported wrapped line numbers. A backfill
  // commit with a pre-set first_line simulates an archive that deep without
  // ingesting four billion entries.
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("early entry kappa 0\n").ok());

  constexpr uint64_t kFarStart = (5ull << 32) + 123;  // > UINT32_MAX
  const std::string text = "deep entry kappa 1\nsecond deep entry lambda 2\n";
  BlockInfo info = BuildBlockSummary(text, 10);
  info.first_line = kFarStart;
  LogGrepEngine engine;
  ASSERT_TRUE(
      archive->CommitCompressedBlock(engine.CompressBlock(text), std::move(info))
          .ok());
  ASSERT_EQ(archive->blocks().size(), 2u);
  EXPECT_EQ(archive->blocks()[1].first_line, kFarStart);

  for (const bool parallel : {false, true}) {
    auto result = parallel ? archive->Query("kappa", {.threads = 2})
                           : archive->Query("kappa");
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->hits.size(), 2u);
    EXPECT_EQ(result->hits[0].first, 0u);
    EXPECT_EQ(result->hits[1].first, kFarStart);
    EXPECT_EQ(result->hits[1].second, "deep entry kappa 1");
  }

  // The next contiguous commit continues after the sparse block.
  ASSERT_TRUE(archive->AppendBlock("after the gap lambda 3\n").ok());
  EXPECT_EQ(archive->blocks()[2].first_line, kFarStart + 2);
  auto after = archive->Query("lambda");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->hits.size(), 2u);
  EXPECT_EQ(after->hits[1].first, kFarStart + 2);

  // And everything survives a manifest round trip.
  auto reopened = LogArchive::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  auto again = reopened->Query("kappa");
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->hits.size(), 2u);
  EXPECT_EQ(again->hits[1].first, kFarStart);
}

TEST_F(LogArchiveTest, PresetFirstLineBelowEndIsClampedContiguous) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("one alpha\ntwo alpha\nthree alpha\n").ok());
  const std::string text = "four beta\n";
  BlockInfo info = BuildBlockSummary(text, 10);
  info.first_line = 1;  // would overlap the first block; must be clamped
  LogGrepEngine engine;
  ASSERT_TRUE(
      archive->CommitCompressedBlock(engine.CompressBlock(text), std::move(info))
          .ok());
  EXPECT_EQ(archive->blocks()[1].first_line, 3u);
}

// ---- shared box cache across archive queries --------------------------------

TEST_F(LogArchiveTest, WarmQueriesSkipBlockFilesEntirely) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock("warm cache entry rho 1\nother sigma 2\n").ok());
  ASSERT_TRUE(archive->AppendBlock("warm cache entry rho 3\nother sigma 4\n").ok());

  auto cold = archive->Query("rho");
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->hits.size(), 2u);
  EXPECT_GT(cold->locator.cache_misses, 0u);

  // Remove every block file: only the cache can serve the bytes now. A new
  // command (different command-cache key) must still succeed, warm.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".lgc") {
      std::filesystem::remove(entry.path());
    }
  }
  auto warm = archive->Query("sigma");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_EQ(warm->hits.size(), 2u);
  EXPECT_GT(warm->locator.cache_hits, 0u);
  EXPECT_GT(warm->locator.bytes_saved, 0u);
  // Threaded-query workers share the same cache and also never touch disk.
  auto parallel = archive->Query("sigma", {.threads = 2});
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->hits.size(), 2u);
}

TEST_F(LogArchiveTest, CacheDisabledArchiveStillAnswersCorrectly) {
  ArchiveOptions options;
  options.box_cache_budget_bytes = 0;  // no shared cache at all
  auto archive = LogArchive::Create(dir_, options);
  ASSERT_TRUE(archive.ok());
  EXPECT_EQ(archive->box_cache(), nullptr);
  ASSERT_TRUE(archive->AppendBlock("plain entry chi 1\n").ok());
  for (int round = 0; round < 2; ++round) {
    auto result = archive->Query("chi");
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->hits.size(), 1u);
    EXPECT_EQ(result->hits[0].second, "plain entry chi 1");
    // No box cache, but the engine still caches results: the repeat is
    // answered without touching the block.
    EXPECT_EQ(result->blocks_from_cache, round == 0 ? 0u : 1u);
  }
  auto parallel = archive->Query("chi", {.threads = 2});
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->hits.size(), 1u);
}

TEST_F(LogArchiveTest, ParallelAndSerialAgreeOnDeterministicStats) {
  // Two identical archives, both cold: the parallel run must report exactly
  // the same hits AND the same deterministic locator counters as the serial
  // one (nanosecond timings are excluded — they are wall-clock).
  DatasetSpec spec = *FindDataset("Ssh");
  auto build = [&](const std::string& dir) {
    auto archive = LogArchive::Create(dir);
    EXPECT_TRUE(archive.ok());
    DatasetSpec s = spec;
    for (int b = 0; b < 5; ++b) {
      s.seed = spec.seed + 31 * b;
      EXPECT_TRUE(archive->AppendBlock(LogGenerator(s).Generate(16 * 1024)).ok());
    }
    return archive;
  };
  auto serial_archive = build(dir_ + "_serial");
  auto parallel_archive = build(dir_ + "_parallel");
  for (const std::string& query :
       {std::string("Failed password"), std::string("sshd and Accepted"),
        std::string("session or preauth")}) {
    auto serial = serial_archive->Query(query);
    auto parallel = parallel_archive->Query(query, {.threads = 4});
    ASSERT_TRUE(serial.ok()) << query;
    ASSERT_TRUE(parallel.ok()) << query;
    ASSERT_EQ(serial->hits, parallel->hits) << query;
    EXPECT_EQ(serial->blocks_pruned, parallel->blocks_pruned) << query;
    EXPECT_EQ(serial->blocks_queried, parallel->blocks_queried) << query;
    const LocatorStats& s = serial->locator;
    const LocatorStats& p = parallel->locator;
    EXPECT_EQ(s.capsules_decompressed, p.capsules_decompressed) << query;
    EXPECT_EQ(s.capsules_stamp_filtered, p.capsules_stamp_filtered) << query;
    EXPECT_EQ(s.bytes_decompressed, p.bytes_decompressed) << query;
    EXPECT_EQ(s.pattern_trivial_hits, p.pattern_trivial_hits) << query;
    EXPECT_EQ(s.possible_matches, p.possible_matches) << query;
    EXPECT_EQ(s.cache_hits, p.cache_hits) << query;
    EXPECT_EQ(s.cache_misses, p.cache_misses) << query;
  }
  std::filesystem::remove_all(dir_ + "_serial");
  std::filesystem::remove_all(dir_ + "_parallel");
}

// ---- right-sized shingle filters ----------------------------------------------

TEST(BlockSummaryTest, OneMebibyteBlockFilterIsRightSizedAndSelective) {
  const std::string text = LogGenerator(AllDatasets()[0]).Generate(1 << 20);
  const BlockInfo block = BuildBlockSummary(text, 10);
  std::set<std::string> present;
  for (std::string_view line : SplitLines(text)) {
    for (std::string_view token : TokenizeKeywords(line)) {
      for (size_t i = 0; i + 4 <= token.size(); ++i) {
        present.emplace(token.substr(i, 4));
      }
    }
  }
  ASSERT_GT(present.size(), 1000u);
  // Folded to 10..20 bits per distinct shingle (the fill-based count
  // estimate may be off by a few percent).
  const double bits_per_shingle =
      static_cast<double>(block.shingles.SizeBytes() * 8) / present.size();
  EXPECT_GE(bits_per_shingle, 9.5);
  EXPECT_LT(bits_per_shingle, 21.0);
  for (const std::string& shingle : present) {
    ASSERT_TRUE(block.shingles.MayContain(shingle)) << shingle;
  }

  std::mt19937_64 rng(42);
  const std::string alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_.";
  int probes = 0;
  int false_positives = 0;
  while (probes < 20000) {
    std::string probe(4, ' ');
    for (char& c : probe) {
      c = alphabet[rng() % alphabet.size()];
    }
    if (present.count(probe) > 0) {
      continue;
    }
    ++probes;
    false_positives += block.shingles.MayContain(probe) ? 1 : 0;
  }
  EXPECT_LE(false_positives, probes / 50) << "false-positive rate above 2%";
}

TEST_F(LogArchiveTest, ManifestIsSmallerThanTheBlocksItDescribes) {
  auto archive = LogArchive::Create(dir_);
  ASSERT_TRUE(archive.ok());
  for (size_t d = 0; d < 3; ++d) {
    ASSERT_TRUE(
        archive->AppendBlock(LogGenerator(AllDatasets()[d]).Generate(1 << 20))
            .ok());
  }
  uint64_t block_bytes = 0;
  for (const BlockInfo& block : archive->blocks()) {
    block_bytes += std::filesystem::file_size(
        dir_ + "/" + LogArchive::BlockFileName(block.seq));
  }
  const uint64_t manifest_bytes =
      std::filesystem::file_size(dir_ + "/archive.manifest");
  EXPECT_LT(manifest_bytes, block_bytes);
}

}  // namespace
}  // namespace loggrep
