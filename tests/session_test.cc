#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/session.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace loggrep {
namespace {

// ---- thread pool ---------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, TasksSubmittedFromTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.Submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 20);
}

// The ingest pipeline Submits from its producer while workers run; many
// producers racing Submit must never lose a task.
TEST(ThreadPoolTest, ConcurrentSubmitFromManyProducers) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 8; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 500; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 8 * 500);
}

// Backpressure reuses one pool across many Append/Wait rounds.
TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 40; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 40);
  }
}

// Destruction with tasks still queued: the pool drains the queue before the
// workers exit (documented behavior the ingestor's destructor relies on).
TEST(ThreadPoolTest, DestructionWithQueuedTasksRunsThemAll) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);  // single worker: queue necessarily backs up
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No Wait(): destructor must drain the queue, not drop it.
  }
  EXPECT_EQ(counter.load(), 50);
}

// ---- refining-mode session --------------------------------------------------------

class QuerySessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = LogGenerator(*FindDataset("Log A")).Generate(48 * 1024);
    box_ = engine_.CompressBlock(text_);
  }

  LogGrepEngine engine_;
  std::string text_;
  std::string box_;
};

TEST_F(QuerySessionTest, IncrementalRefinementMatchesFullQuery) {
  QuerySession session(&engine_, box_);
  auto broad = session.Query("ERROR");
  ASSERT_TRUE(broad.ok());
  EXPECT_FALSE(broad->refined_incrementally);

  auto narrow = session.Query("ERROR and state:REQ_ST_CLOSED");
  ASSERT_TRUE(narrow.ok());
  EXPECT_TRUE(narrow->refined_incrementally);

  // Ground truth: the same command via a fresh engine.
  LogGrepEngine fresh;
  auto full = fresh.Query(fresh.CompressBlock(text_),
                          "ERROR and state:REQ_ST_CLOSED");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(narrow->hits.size(), full->hits.size());
  for (size_t i = 0; i < full->hits.size(); ++i) {
    EXPECT_EQ(narrow->hits[i].first, full->hits[i].first);
    EXPECT_EQ(narrow->hits[i].second, full->hits[i].second);
  }
}

TEST_F(QuerySessionTest, ChainedRefinements) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  auto second = session.Query("ERROR and aborted");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->refined_incrementally);
  auto third = session.Query("ERROR and aborted and state:REQ_ST_TIMEOUT");
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->refined_incrementally);
  for (const auto& [line, hit_text] : third->hits) {
    EXPECT_NE(hit_text.find("REQ_ST_TIMEOUT"), std::string::npos);
  }
}

TEST_F(QuerySessionTest, NonRefinementFallsBackToFullQuery) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  // OR-extension is NOT a sound narrowing: must re-run fully.
  auto widened = session.Query("ERROR or WARN");
  ASSERT_TRUE(widened.ok());
  EXPECT_FALSE(widened->refined_incrementally);
  // A completely different command likewise.
  auto other = session.Query("heartbeat");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->refined_incrementally);
}

TEST_F(QuerySessionTest, AppendedNotClauseIsNotIncremental) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  auto negated = session.Query("ERROR not aborted");
  ASSERT_TRUE(negated.ok());
  EXPECT_FALSE(negated->refined_incrementally);
  // But it must still be correct.
  for (const auto& [line, hit_text] : negated->hits) {
    EXPECT_EQ(hit_text.find("aborted"), std::string::npos);
  }
}

TEST_F(QuerySessionTest, RevisitingAnyEarlierCommandIsMemoized) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  auto refined = session.Query("ERROR and aborted");
  ASSERT_TRUE(refined.ok());
  ASSERT_TRUE(refined->refined_incrementally);
  // Revisit the refined command: served from the engine's result cache,
  // where the session stored the refinement the engine never executed.
  auto revisit = session.Query("ERROR and aborted");
  ASSERT_TRUE(revisit.ok());
  EXPECT_TRUE(revisit->from_cache);
  ASSERT_EQ(revisit->hits.size(), refined->hits.size());
  // And refinement continues from the revisited state.
  auto deeper = session.Query("ERROR and aborted and code:");
  ASSERT_TRUE(deeper.ok());
  EXPECT_TRUE(deeper->refined_incrementally);
  // Stepping back to the parent and forward again replays the cached
  // refinement instead of filtering the parent's hits a second time.
  ASSERT_TRUE(session.Query("ERROR").ok());
  auto again = session.Query("ERROR and aborted");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_FALSE(again->refined_incrementally);
  EXPECT_EQ(again->hits, refined->hits);
}

// A refined result lands in the engine's result cache, so a plain engine
// query of the refined command is answered from it — and must equal what a
// cold engine computes for that command.
TEST_F(QuerySessionTest, RefinedResultServesPlainEngineQuery) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  const std::string refined_command = "ERROR and state:REQ_ST_CLOSED";
  auto refined = session.Query(refined_command);
  ASSERT_TRUE(refined.ok());
  ASSERT_TRUE(refined->refined_incrementally);

  auto plain = engine_.Query(box_, refined_command);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->from_cache);

  EngineOptions cold_options;
  cold_options.use_cache = false;
  cold_options.use_box_cache = false;
  LogGrepEngine cold(cold_options);
  auto truth = cold.Query(box_, refined_command);
  ASSERT_TRUE(truth.ok());
  EXPECT_FALSE(truth->hits.empty());
  EXPECT_EQ(plain->hits, truth->hits);
}

TEST_F(QuerySessionTest, ResetForgetsRefinementState) {
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  session.Reset();
  auto after = session.Query("ERROR and aborted");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->refined_incrementally);
}

TEST_F(QuerySessionTest, ResetFlushesResultsButKeepsBoxesWarm) {
  // A reset must never serve pre-reset hits; the opened box and Capsules
  // are identity-keyed bytes, not answers, and stay warm.
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  auto repeat = session.Query("ERROR");
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->from_cache);
  const BoxCacheStats before = engine_.box_cache()->Stats();
  session.Reset();
  auto after = session.Query("ERROR");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);
  const BoxCacheStats stats = engine_.box_cache()->Stats();
  EXPECT_EQ(stats.result_misses, before.result_misses + 1);
  EXPECT_EQ(stats.box_hits, before.box_hits + 1);
  EXPECT_EQ(stats.box_misses, before.box_misses);
  EXPECT_EQ(stats.capsule_misses, before.capsule_misses);
}

// The serving layer calls Rebind when the archive set rolls the shard a
// session was following: same engine, NEW box. Neither the refinement state
// nor the memo may ever serve hits computed against the old box.
TEST_F(QuerySessionTest, RebindNeverServesOldBoxHits) {
  // A second block whose ERROR population differs from the first.
  const std::string other_text =
      LogGenerator(*FindDataset("Log A")).Generate(16 * 1024);
  const std::string other_box = engine_.CompressBlock(other_text);

  QuerySession session(&engine_, box_);
  auto before = session.Query("ERROR");
  ASSERT_TRUE(before.ok());

  session.Rebind(other_box);
  EXPECT_EQ(session.box(), std::string_view(other_box));

  // Revisiting the same command must re-execute against the new box, not
  // replay the memoized old-box hits.
  auto after = session.Query("ERROR");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);
  LogGrepEngine fresh;
  auto truth = fresh.Query(fresh.CompressBlock(other_text), "ERROR");
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(after->hits.size(), truth->hits.size());
  for (size_t i = 0; i < truth->hits.size(); ++i) {
    EXPECT_EQ(after->hits[i].first, truth->hits[i].first);
    EXPECT_EQ(after->hits[i].second, truth->hits[i].second);
  }
}

TEST_F(QuerySessionTest, RebindForgetsRefinementState) {
  const std::string other_box = engine_.CompressBlock(
      LogGenerator(*FindDataset("Log A")).Generate(16 * 1024));
  QuerySession session(&engine_, box_);
  ASSERT_TRUE(session.Query("ERROR").ok());
  session.Rebind(other_box);
  // "ERROR and aborted" would be a sound refinement of the pre-rebind
  // "ERROR" — but those hits belong to the old box, so the session must
  // fall back to a full query.
  auto narrowed = session.Query("ERROR and aborted");
  ASSERT_TRUE(narrowed.ok());
  EXPECT_FALSE(narrowed->refined_incrementally);
}

// ---- property test: refinement == cold full query ---------------------------
//
// For every production dataset, grow a command by appending AND clauses —
// including wildcard and quoted-keyword suffixes — and check that the
// incremental path produces hit-for-hit exactly what a cold engine (no query
// cache, no box cache) computes for the full command.
TEST(QuerySessionPropertyTest, RefinementMatchesColdQueryAcrossDatasets) {
  const std::vector<std::vector<std::string>> suffix_chains = {
      {"ERROR", "ERROR and 1", "ERROR and 1 and 2"},
      {"INFO", "INFO and id*", "INFO and id* and 1?"},        // wildcards
      {"0", "0 and \"1\"", "0 and \"1\" and \"id\""},         // quoted
      {"1", "1 and 2*3", "1 and 2*3 and \"4\""},              // mixed
  };
  for (const DatasetSpec* spec_ptr : ProductionDatasets()) {
    const DatasetSpec& spec = *spec_ptr;
    const std::string text = LogGenerator(spec).Generate(12 * 1024);
    LogGrepEngine engine;
    const std::string box = engine.CompressBlock(text);

    EngineOptions cold_options;
    cold_options.use_cache = false;
    cold_options.use_box_cache = false;
    LogGrepEngine cold(cold_options);

    for (const std::vector<std::string>& chain : suffix_chains) {
      QuerySession session(&engine, box);
      for (const std::string& command : chain) {
        auto via_session = session.Query(command);
        ASSERT_TRUE(via_session.ok()) << spec.name << ": " << command;
        auto ground_truth = cold.Query(box, command);
        ASSERT_TRUE(ground_truth.ok()) << spec.name << ": " << command;
        ASSERT_EQ(via_session->hits.size(), ground_truth->hits.size())
            << spec.name << ": " << command;
        for (size_t i = 0; i < ground_truth->hits.size(); ++i) {
          EXPECT_EQ(via_session->hits[i].first, ground_truth->hits[i].first)
              << spec.name << ": " << command;
          EXPECT_EQ(via_session->hits[i].second, ground_truth->hits[i].second)
              << spec.name << ": " << command;
        }
      }
    }
  }
}

}  // namespace
}  // namespace loggrep
