// Unit tests for the fault-tolerant storage layer: StorageEnv backends
// (errno fidelity, fault schedules, torn writes, virtual clock), the retry
// policy (convergence, non-retryable codes, exhaustion, deadline budgets),
// crash-safe fs_util (fsync discipline, tagged temps, sweep liveness), and
// the quarantine sidecar serialization.
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/metrics.h"
#include "src/store/fs_util.h"
#include "src/store/quarantine.h"
#include "src/store/retry.h"
#include "src/store/storage_env.h"

namespace loggrep {
namespace {

class StorageEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("loggrep_env_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  void WriteRaw(const std::string& name, const std::string& data) {
    std::ofstream out(Path(name), std::ios::binary);
    out << data;
  }

  std::string dir_;
};

// Wraps the default env and counts sync calls — the "injectable fsync hook".
class SyncCountingEnv : public StorageEnv {
 public:
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Status WriteFile(const std::string& path, std::string_view data) override {
    return base_->WriteFile(path, data);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    ++renames;
    return base_->Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status SyncFile(const std::string& path) override {
    ++file_syncs;
    last_file_synced = path;
    return base_->SyncFile(path);
  }
  Status SyncDir(const std::string& dir) override {
    ++dir_syncs;
    // The rename must already have happened when the directory is synced.
    renames_at_dir_sync = renames;
    return base_->SyncDir(dir);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  uint64_t NowNanos() override { return base_->NowNanos(); }
  void SleepNanos(uint64_t nanos) override { base_->SleepNanos(nanos); }
  const char* name() const override { return "sync-counting"; }

  int file_syncs = 0;
  int dir_syncs = 0;
  int renames = 0;
  int renames_at_dir_sync = -1;
  std::string last_file_synced;

 private:
  StorageEnv* base_ = DefaultStorageEnv();
};

// ---------------------------------------------------------------------------
// Errno fidelity
// ---------------------------------------------------------------------------

TEST_F(StorageEnvTest, MissingFileIsNotFoundNotIOError) {
  auto r = ReadFileBytes(Path("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
      << r.status().ToString();
  EXPECT_FALSE(RetryableStatus(r.status().code()));
}

TEST_F(StorageEnvTest, UnreadableFileIsPermissionDenied) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "running as root: permission bits are not enforced";
  }
  WriteRaw("secret", "classified");
  ASSERT_EQ(::chmod(Path("secret").c_str(), 0), 0);
  auto r = ReadFileBytes(Path("secret"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied)
      << r.status().ToString();
  EXPECT_FALSE(RetryableStatus(r.status().code()));
  ::chmod(Path("secret").c_str(), 0644);
}

TEST_F(StorageEnvTest, RoundTripReadWrite) {
  const std::string payload(100000, 'x');
  ASSERT_TRUE(WriteFileBytes(Path("f"), payload).ok());
  auto r = ReadFileBytes(Path("f"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, payload);
}

// ReadFile reads in 64 KiB chunks; the empty file and sizes around the
// chunk size must come back byte for byte.
TEST_F(StorageEnvTest, ReadFileReturnsExactBytesAroundChunkSizes) {
  PosixStorageEnv env;
  for (const size_t size : {size_t{0}, size_t{1} << 16, 3 * (size_t{1} << 16) + 17}) {
    std::string payload(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>((i * 131) ^ (i >> 9));
    }
    const std::string name = "sized-" + std::to_string(size);
    WriteRaw(name, payload);
    auto r = env.ReadFile(Path(name));
    ASSERT_TRUE(r.ok()) << size << ": " << r.status().ToString();
    EXPECT_EQ(r->size(), size);
    EXPECT_TRUE(*r == payload) << "content differs at size " << size;
  }
}

// ---------------------------------------------------------------------------
// WriteFileAtomic: fsync discipline + crash hygiene
// ---------------------------------------------------------------------------

TEST_F(StorageEnvTest, WriteFileAtomicSyncsFileBeforeRenameAndDirAfter) {
  SyncCountingEnv env;
  ASSERT_TRUE(WriteFileAtomic(Path("manifest"), "data-v1", &env).ok());
  EXPECT_GE(env.file_syncs, 1);               // temp fsynced...
  EXPECT_EQ(env.renames, 1);                  // ...then renamed...
  EXPECT_GE(env.dir_syncs, 1);                // ...then the directory entry
  EXPECT_EQ(env.renames_at_dir_sync, 1);      // dir sync strictly after rename
  // The temp (not the final name) is what got synced pre-rename.
  EXPECT_NE(env.last_file_synced.find(".tmp"), std::string::npos);
  auto r = ReadFileBytes(Path("manifest"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "data-v1");
}

TEST_F(StorageEnvTest, WriteFileAtomicFailedWriteLeavesOldFileAndNoTemp) {
  ASSERT_TRUE(WriteFileAtomic(Path("manifest"), "old").ok());
  FaultOptions fo;
  fo.virtual_clock = false;
  FaultInjectingStorageEnv env(fo);
  env.FailNext(StorageOp::kWrite, 1, StatusCode::kIOError);
  Status s = WriteFileAtomic(Path("manifest"), "new", &env);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  auto r = ReadFileBytes(Path("manifest"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "old");
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << entry.path();
  }
}

TEST_F(StorageEnvTest, TornWriteNeverReachesTheCommittedName) {
  ASSERT_TRUE(WriteFileAtomic(Path("manifest"), "committed-v1").ok());
  FaultOptions fo;
  fo.seed = 7;
  fo.write_fail_p = 1.0;
  fo.torn_write_p = 1.0;
  fo.fault_code = StatusCode::kIOError;
  fo.virtual_clock = false;
  FaultInjectingStorageEnv env(fo);
  const std::string big(4096, 'Z');
  Status s = WriteFileAtomic(Path("manifest"), big, &env);
  ASSERT_FALSE(s.ok());
  EXPECT_GE(env.torn_writes(), 1u);
  // The torn prefix landed (if anywhere) in a temp, never over the committed
  // name; the failed-write cleanup then removed the temp.
  auto r = ReadFileBytes(Path("manifest"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "committed-v1");
}

// ---------------------------------------------------------------------------
// Tagged temps + sweep liveness
// ---------------------------------------------------------------------------

TEST_F(StorageEnvTest, MakeTempPathEmbedsPidAndUniqueNonce) {
  const std::string a = MakeTempPath(Path("file"));
  const std::string b = MakeTempPath(Path("file"));
  EXPECT_NE(a, b);
  const std::string pid = std::to_string(::getpid());
  EXPECT_NE(a.find("." + pid + "-"), std::string::npos) << a;
  EXPECT_EQ(a.compare(a.size() - 4, 4, ".tmp"), 0) << a;
}

TEST_F(StorageEnvTest, SweepSkipsLiveTempsAndReapsDeadOnes) {
  // 1. Legacy bare temp: crash dropping, swept.
  WriteRaw("block-1.lgc.tmp", "legacy");
  // 2. This process, registered live (in-flight write): must survive.
  ScopedTempFile live(Path("block-2.lgc"));
  WriteRaw(std::filesystem::path(live.path()).filename().string(), "live");
  ASSERT_TRUE(TempFileIsLive(live.path()));
  // 3. This process, *not* registered: an abandoned temp from a past
  //    incarnation with a recycled pid — crash dropping, swept.
  WriteRaw("block-3.lgc." + std::to_string(::getpid()) + "-99.tmp", "stale");
  // 4. Another live process (pid 1 always exists): in-flight, must survive.
  WriteRaw("block-4.lgc.1-0.tmp", "other-live");
  // 5. A pid that cannot exist (beyond pid_max): dead owner, swept.
  WriteRaw("block-5.lgc.2147483647-0.tmp", "dead-owner");

  const std::vector<std::string> removed = SweepTempFiles(dir_);
  EXPECT_EQ(removed.size(), 3u);
  EXPECT_FALSE(std::filesystem::exists(Path("block-1.lgc.tmp")));
  EXPECT_TRUE(std::filesystem::exists(live.path()));
  EXPECT_FALSE(std::filesystem::exists(
      Path("block-3.lgc." + std::to_string(::getpid()) + "-99.tmp")));
  EXPECT_TRUE(std::filesystem::exists(Path("block-4.lgc.1-0.tmp")));
  EXPECT_FALSE(std::filesystem::exists(Path("block-5.lgc.2147483647-0.tmp")));
}

TEST_F(StorageEnvTest, TempLivenessEndsWithTheGuard) {
  std::string temp_path;
  {
    ScopedTempFile guard(Path("block.lgc"));
    temp_path = guard.path();
    EXPECT_TRUE(TempFileIsLive(temp_path));
  }
  EXPECT_FALSE(TempFileIsLive(temp_path));
}

// ---------------------------------------------------------------------------
// Fault schedules
// ---------------------------------------------------------------------------

TEST_F(StorageEnvTest, FailNextFailsExactlyNOperations) {
  WriteRaw("f", "payload");
  FaultInjectingStorageEnv env(FaultOptions{});
  env.FailNext(StorageOp::kRead, 2, StatusCode::kUnavailable);
  EXPECT_EQ(env.ReadFile(Path("f")).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(env.ReadFile(Path("f")).status().code(), StatusCode::kUnavailable);
  auto ok = env.ReadFile(Path("f"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "payload");
  EXPECT_EQ(env.faults_injected(), 2u);
}

TEST_F(StorageEnvTest, FailNthFailsTheScheduledCallOnly) {
  WriteRaw("f", "payload");
  FaultInjectingStorageEnv env(FaultOptions{});
  env.FailNth(StorageOp::kRead, 3, StatusCode::kIOError);  // EIO on 3rd read
  EXPECT_TRUE(env.ReadFile(Path("f")).ok());
  EXPECT_TRUE(env.ReadFile(Path("f")).ok());
  EXPECT_EQ(env.ReadFile(Path("f")).status().code(), StatusCode::kIOError);
  EXPECT_TRUE(env.ReadFile(Path("f")).ok());
}

TEST_F(StorageEnvTest, PermanentFaultDominatesUntilCleared) {
  WriteRaw("block-0.lgc", "bytes");
  WriteRaw("other", "bytes");
  FaultInjectingStorageEnv env(FaultOptions{});
  env.AddPermanentFault("block-0", StatusCode::kIOError);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(env.ReadFile(Path("block-0.lgc")).status().code(),
              StatusCode::kIOError);
  }
  EXPECT_TRUE(env.ReadFile(Path("other")).ok());
  env.ClearPermanentFaults();
  EXPECT_TRUE(env.ReadFile(Path("block-0.lgc")).ok());
}

TEST_F(StorageEnvTest, ProbabilisticFaultsAreSeededDeterministic) {
  WriteRaw("f", "payload");
  auto run = [this](uint64_t seed) {
    FaultOptions fo;
    fo.seed = seed;
    fo.read_fail_p = 0.5;
    FaultInjectingStorageEnv env(fo);
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      pattern += env.ReadFile(Path("f")).ok() ? 'o' : 'x';
    }
    return pattern;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // astronomically unlikely to collide
}

TEST_F(StorageEnvTest, MaxFaultsPerPathMakesStormsTransient) {
  WriteRaw("f", "payload");
  FaultOptions fo;
  fo.read_fail_p = 1.0;
  fo.max_faults_per_path = 2;
  FaultInjectingStorageEnv env(fo);
  EXPECT_FALSE(env.ReadFile(Path("f")).ok());
  EXPECT_FALSE(env.ReadFile(Path("f")).ok());
  EXPECT_TRUE(env.ReadFile(Path("f")).ok());  // cap reached: path healed
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST_F(StorageEnvTest, RetryConvergesOnTransientFaultsInZeroWallTime) {
  WriteRaw("f", "payload");
  FaultInjectingStorageEnv env(FaultOptions{});  // virtual clock on
  env.FailNext(StorageOp::kRead, 2, StatusCode::kUnavailable);
  MetricsRegistry metrics;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ns = 50'000'000;  // 50ms — virtual, costs nothing
  policy.max_backoff_ns = 2'000'000'000;
  const uint64_t wall_before = DefaultStorageEnv()->NowNanos();
  auto r = RetryReadFile(&env, policy, nullptr, Path("f"), &metrics);
  const uint64_t wall_spent = DefaultStorageEnv()->NowNanos() - wall_before;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "payload");
  EXPECT_EQ(metrics.GetOrCreate("storage.retry.attempts")->value(), 3u);
  EXPECT_EQ(metrics.GetOrCreate("storage.retry.retries")->value(), 2u);
  EXPECT_EQ(metrics.GetOrCreate("storage.retry.success_after_retry")->value(),
            1u);
  EXPECT_GT(metrics.GetOrCreate("storage.retry.backoff_ns")->value(), 0u);
  // Backoff happened on the virtual clock: well under a second of real time.
  EXPECT_LT(wall_spent, 1'000'000'000u);
}

TEST_F(StorageEnvTest, RetryStopsImmediatelyOnDeterministicCodes) {
  for (const StatusCode code :
       {StatusCode::kNotFound, StatusCode::kPermissionDenied,
        StatusCode::kCorruptData}) {
    WriteRaw("f", "payload");
    FaultInjectingStorageEnv env(FaultOptions{});
    env.FailNext(StorageOp::kRead, 1, code);
    MetricsRegistry metrics;
    RetryPolicy policy;
    policy.max_attempts = 5;
    auto r = RetryReadFile(&env, policy, nullptr, Path("f"), &metrics);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), code);
    EXPECT_EQ(metrics.GetOrCreate("storage.retry.attempts")->value(), 1u)
        << StatusCodeName(code);
  }
}

TEST_F(StorageEnvTest, RetryExhaustionReportsAttemptsAndLastError) {
  FaultInjectingStorageEnv env(FaultOptions{});
  env.AddPermanentFault("sick", StatusCode::kIOError);
  MetricsRegistry metrics;
  RetryPolicy policy;
  policy.max_attempts = 3;
  auto r = RetryReadFile(&env, policy, nullptr, Path("sick"), &metrics);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("3 attempt(s) exhausted"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(metrics.GetOrCreate("storage.retry.attempts")->value(), 3u);
  EXPECT_EQ(metrics.GetOrCreate("storage.retry.exhausted")->value(), 1u);
}

TEST_F(StorageEnvTest, RetryBudgetDeadlineCutsTheStormShort) {
  FaultInjectingStorageEnv env(FaultOptions{});  // virtual clock
  env.AddPermanentFault("sick", StatusCode::kUnavailable);
  MetricsRegistry metrics;
  RetryPolicy policy;
  policy.max_attempts = 1000;                  // attempts would run forever...
  policy.initial_backoff_ns = 10'000'000;      // ...10ms backoff each...
  policy.max_backoff_ns = 10'000'000;
  RetryBudget budget(&env, 50'000'000);        // ...but only 50ms of budget
  auto r = RetryReadFile(&env, policy, &budget, Path("sick"), &metrics);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("retry budget exhausted"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(metrics.GetOrCreate("storage.retry.deadline_exceeded")->value(),
            1u);
  // Far fewer than max_attempts tries fit into the budget.
  EXPECT_LT(metrics.GetOrCreate("storage.retry.attempts")->value(), 20u);
}

TEST_F(StorageEnvTest, RetryBudgetUnlimitedWhenZero) {
  FaultInjectingStorageEnv env(FaultOptions{});
  RetryBudget budget(&env, 0);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_FALSE(budget.Expired());
  EXPECT_EQ(budget.RemainingNanos(), UINT64_MAX);
}

TEST_F(StorageEnvTest, BackoffIsBoundedByPolicyCap) {
  FaultInjectingStorageEnv env(FaultOptions{});
  env.AddPermanentFault("sick", StatusCode::kUnavailable);
  MetricsRegistry metrics;
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_ns = 1'000'000;
  policy.max_backoff_ns = 4'000'000;  // tight cap
  (void)RetryReadFile(&env, policy, nullptr, Path("sick"), &metrics);
  const uint64_t slept =
      metrics.GetOrCreate("storage.retry.backoff_ns")->value();
  // 7 sleeps, each in [1ms, 4ms].
  EXPECT_GE(slept, 7u * 1'000'000u);
  EXPECT_LE(slept, 7u * 4'000'000u);
}

// ---------------------------------------------------------------------------
// LatencyStorageEnv
// ---------------------------------------------------------------------------

TEST_F(StorageEnvTest, LatencyEnvChargesPerOpAndPerByte) {
  WriteRaw("f", std::string(1000, 'x'));
  FaultInjectingStorageEnv clock(FaultOptions{});  // virtual clock as base
  LatencyOptions lo;
  lo.per_op_nanos = 1'000'000;      // 1ms RTT
  lo.per_byte_picos = 1'000'000;    // 1us per byte => 1ms for 1000 bytes
  LatencyStorageEnv env(lo, &clock);
  const uint64_t before = clock.NowNanos();
  auto r = env.ReadFile(Path("f"));
  ASSERT_TRUE(r.ok());
  const uint64_t charged = clock.NowNanos() - before;
  EXPECT_GE(charged, 2'000'000u);  // RTT + bandwidth, on the virtual clock
}

// ---------------------------------------------------------------------------
// Quarantine sidecar
// ---------------------------------------------------------------------------

TEST_F(StorageEnvTest, QuarantineJsonRoundTripsEntriesExactly) {
  QuarantineSet set;
  set.Add({3, "IO_ERROR", "fs: read \"weird\\path\"\n\tEIO", false, 1754000000});
  set.Add({1, "UNAVAILABLE", "throttled", true, 0});
  set.Add({7, "CORRUPT_DATA", std::string("nul\0byte", 8), false, 42});
  ASSERT_EQ(set.entries.size(), 3u);
  EXPECT_EQ(set.entries[0].seq, 1u);  // kept sorted

  const std::string json = SerializeQuarantineJson(set);
  auto parsed = ParseQuarantineJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  ASSERT_EQ(parsed->entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed->entries[i].seq, set.entries[i].seq);
    EXPECT_EQ(parsed->entries[i].code, set.entries[i].code);
    EXPECT_EQ(parsed->entries[i].error, set.entries[i].error);
    EXPECT_EQ(parsed->entries[i].tombstoned, set.entries[i].tombstoned);
    EXPECT_EQ(parsed->entries[i].quarantined_unix,
              set.entries[i].quarantined_unix);
  }
}

TEST_F(StorageEnvTest, QuarantineParseRejectsGarbageCleanly) {
  for (const char* bad :
       {"", "{", "not json", "{\"version\":1}", "{\"version\":9,\"blocks\":[]}",
        "{\"version\":1,\"blocks\":[{}]}",
        "{\"version\":1,\"blocks\":[{\"seq\":99999999999}]}",
        "{\"version\":1,\"blocks\":[]}trailing"}) {
    auto parsed = ParseQuarantineJson(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptData) << bad;
    }
  }
  // Unknown fields are skipped (forward compatibility), not rejected.
  auto ok = ParseQuarantineJson(
      "{\"version\":1,\"future\":{\"a\":[1,2,{\"b\":null}]},"
      "\"blocks\":[{\"seq\":2,\"new_field\":true}]}");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->entries.size(), 1u);
  EXPECT_EQ(ok->entries[0].seq, 2u);
}

TEST_F(StorageEnvTest, LoadQuarantineMissingFileIsEmptySet) {
  auto loaded = LoadQuarantine(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
}

TEST_F(StorageEnvTest, SaveQuarantinePersistsAndEmptySetRemovesSidecar) {
  QuarantineSet set;
  set.Add({5, "IO_ERROR", "boom", false, 0});
  ASSERT_TRUE(SaveQuarantine(dir_, set).ok());
  EXPECT_TRUE(std::filesystem::exists(QuarantinePath(dir_)));
  auto loaded = LoadQuarantine(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->entries.size(), 1u);
  EXPECT_EQ(loaded->entries[0].seq, 5u);

  ASSERT_TRUE(SaveQuarantine(dir_, QuarantineSet{}).ok());
  EXPECT_FALSE(std::filesystem::exists(QuarantinePath(dir_)));
  // Removing again (already healthy) is not an error.
  EXPECT_TRUE(SaveQuarantine(dir_, QuarantineSet{}).ok());
}

TEST_F(StorageEnvTest, QuarantineAddKeepsFirstErrorAndTombstoneState) {
  QuarantineSet set;
  EXPECT_TRUE(set.Add({4, "IO_ERROR", "first cause", true, 100}));
  EXPECT_FALSE(set.Add({4, "UNAVAILABLE", "later cause", false, 200}));
  ASSERT_EQ(set.entries.size(), 1u);
  EXPECT_EQ(set.entries[0].code, "IO_ERROR");
  EXPECT_EQ(set.entries[0].error, "first cause");
  EXPECT_TRUE(set.entries[0].tombstoned);  // re-failure never un-tombstones
  EXPECT_EQ(set.entries[0].quarantined_unix, 100u);
  EXPECT_EQ(set.tombstoned_count(), 1u);
  EXPECT_TRUE(set.Remove(4));
  EXPECT_FALSE(set.Remove(4));
  EXPECT_TRUE(set.empty());
}

TEST_F(StorageEnvTest, PartialReportRenderNamesEveryHole) {
  PartialReport report;
  EXPECT_FALSE(report.partial());
  report.failures.push_back({3, 900, 300, "IO_ERROR: boom", true, false});
  report.failures.push_back({5, 1500, 100, "tomb", false, true});
  EXPECT_TRUE(report.partial());
  EXPECT_EQ(report.lines_missing(), 400u);
  const std::string text = report.Render();
  EXPECT_NE(text.find("block 3"), std::string::npos);
  EXPECT_NE(text.find("[900,1200)"), std::string::npos);
  EXPECT_NE(text.find("newly quarantined"), std::string::npos);
  EXPECT_NE(text.find("tombstoned"), std::string::npos);
}

}  // namespace
}  // namespace loggrep
