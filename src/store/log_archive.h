// LogArchive: a directory-backed store of many compressed log blocks.
//
// The paper evaluates single 64 MB blocks; in production a near-line store
// holds long sequences of them (§8 points at scaling out). The archive layer
// adds the missing block dimension: every appended block becomes one
// CapsuleBox file plus a manifest entry carrying a block-level summary — a
// token stamp and a Bloom filter over token 4-byte shingles — so a query
// prunes whole blocks before any CapsuleBox is even opened. Pruning is sound
// for the containment semantics: a keyword of length >= 4 can only occur in a
// block whose shingle filter contains all of the keyword's shingles; shorter
// or wildcard keywords fall back to the stamp check.
#ifndef SRC_STORE_LOG_ARCHIVE_H_
#define SRC_STORE_LOG_ARCHIVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/capsule/stamp.h"
#include "src/common/bloom.h"
#include "src/common/metrics.h"
#include "src/core/engine.h"
#include "src/query/box_cache.h"
#include "src/query/locator.h"
#include "src/query/query_parser.h"
#include "src/store/quarantine.h"
#include "src/store/retry.h"
#include "src/store/storage_env.h"

namespace loggrep {

struct ArchiveOptions {
  EngineOptions engine;
  // Bits per distinct 4-byte shingle in each block's Bloom filter: the
  // filter is folded after the block is summarised until halving it once
  // more would leave fewer bits per distinct shingle than this. 10 keeps
  // each probe's false-positive rate under ~1% as long as the block holds
  // at most one distinct shingle per 4 raw bytes (the build size); a block
  // with more keeps the build-size filter and a higher rate.
  uint32_t bloom_bits_per_shingle = 10;
  // Byte budget of the archive-owned BoxCache shared by Query, ParallelQuery
  // workers and the embedded engine. 0 disables the shared cache.
  size_t box_cache_budget_bytes = 256ull << 20;
  // Optional registry for query/cache counters. Borrowed.
  MetricsRegistry* metrics = nullptr;
  // Storage backend every durable read/write/rename goes through. Borrowed;
  // null means the real POSIX filesystem. Tests plug in a
  // FaultInjectingStorageEnv to exercise these exact code paths.
  StorageEnv* env = nullptr;
  // Retry policy for query-path block reads (transient backend failures are
  // re-attempted with decorrelated-jitter backoff before a block is given up
  // on). max_attempts = 1 disables retrying.
  RetryPolicy retry;
  // Per-query retry deadline: one Query/ParallelQuery/Explain call never
  // spends more than this much wall time in backoff, no matter how many
  // blocks fail. 0 means unlimited.
  uint64_t query_deadline_ns = 0;
  // When true (default), a block whose read or decode fails after retries is
  // quarantined and the query degrades (hits from healthy blocks plus a
  // PartialReport). When false, the first block failure fails the query.
  bool degraded_queries = true;
};

struct BlockInfo {
  uint32_t seq = 0;
  uint64_t first_line = 0;   // global line number of the block's first entry
  uint64_t line_count = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
  // Chained FNV-1a over every raw line plus a '\n' terminator byte
  // (unambiguous: lines never contain '\n'). Lets `loggrep_cli verify`
  // prove a block reconstructs to exactly the ingested text.
  uint64_t content_hash = 0;
  // FNV-1a over the stored CapsuleBox bytes (detects at-rest bit rot
  // without decompressing anything).
  uint64_t stored_hash = 0;
  CapsuleStamp token_stamp;  // over all tokens of the block
  BloomFilter shingles;      // 4-byte substrings of every token
};

// Chained content hash used for BlockInfo::content_hash: FNV-1a absorbed
// over each line followed by one '\n' byte. Exposed so the verifier can
// recompute it from reconstructed lines.
uint64_t HashBlockContent(std::string_view text);

// Parses serialized manifest bytes into block summaries. Exposed separately
// from Open for the manifest fuzz target and verify tooling; hostile input
// yields a clean Status, never a crash or unbounded allocation.
Result<std::vector<BlockInfo>> ParseManifestBytes(std::string_view bytes);

// Crash-safe block commit protocol (used by AppendBlock and the ingest
// pipeline). Every step goes through a tagged tmp file (pid + nonce, see
// MakeTempPath) + fsync + atomic rename, all via the injectable StorageEnv:
//   1. write+fsync  block-N.lgc.<pid>-<n>.tmp      [kBlockTmpWritten]
//   2. rename       tmp -> block-N.lgc             [kBlockRenamed]
//   3. write+fsync  archive.manifest.<pid>-<n>.tmp [kManifestTmpWritten]
//   4. rename       tmp -> archive.manifest, fsync the directory
// A crash between any two steps leaves either the old archive state or the
// new one plus sweepable garbage; `Open` recovers by trusting the manifest,
// dropping trailing entries whose block file is missing, and sweeping
// orphaned `*.tmp` / unreferenced block files (skipping temps that belong to
// a live in-flight write, this process's or another's).
enum class CommitKillPoint {
  kBlockTmpWritten,    // block temp durable, final name absent
  kBlockRenamed,       // block durable, manifest still the old one
  kManifestTmpWritten, // new manifest written to tmp, not yet renamed
};

// Fault-injection hook: invoked at each kill point during a commit; return
// true to abort mid-protocol as if the process died there. Production passes
// nullptr.
using CommitHook = std::function<bool(CommitKillPoint)>;

// Printable name for diagnostics ("block-tmp-written", ...).
const char* CommitKillPointName(CommitKillPoint point);

// Builds the block-level summary (line count, raw bytes, token stamp,
// shingle Bloom filter) for one block of text. seq / first_line /
// stored_bytes are assigned at commit time.
BlockInfo BuildBlockSummary(std::string_view text,
                            uint32_t bloom_bits_per_shingle);

struct ArchiveQueryResult {
  // Hits carry 64-bit global line numbers across all blocks, in ingestion
  // order (an archive past ~4 billion lines must not wrap).
  QueryHits hits;
  uint32_t blocks_pruned = 0;
  uint32_t blocks_queried = 0;
  // Of blocks_queried, how many were answered from the engine's command
  // cache. Cached blocks echo the cost snapshot of the execution that
  // produced them (see LogGrepEngine), so a reader of `locator` needs this
  // to tell replayed cost from fresh work: blocks_from_cache ==
  // blocks_queried means no fresh decompression happened at all.
  uint32_t blocks_from_cache = 0;
  // Blocks the query could not serve (quarantined before the query, or
  // failed during it). Empty means the result is complete; otherwise `hits`
  // is exact over every healthy block and `partial` names each hole.
  PartialReport partial;
  LocatorStats locator;  // summed over queried blocks (+ prune stage time)
};

class LogArchive {
 public:
  // Creates an empty archive in `dir` (created if missing; must not already
  // hold a manifest).
  static Result<LogArchive> Create(std::string dir, ArchiveOptions options = {});
  // Opens an existing archive (block summaries load from the manifest).
  // Recovery: trailing manifest entries whose block file is missing are
  // dropped (the manifest is re-persisted), interior holes are rejected as
  // corruption — unless the block is quarantined, in which case the hole is
  // a known, reported condition — and orphaned `*.tmp` / unreferenced block
  // files are swept.
  static Result<LogArchive> Open(std::string dir, ArchiveOptions options = {});

  // Compresses `text` as the next block and persists it + the manifest
  // (crash-safe: every file lands via tmp + atomic rename).
  Status AppendBlock(std::string_view text);

  // Commits an already-compressed block (summary pre-computed off-thread by
  // the ingest pipeline). Assigns seq / stored_bytes, then runs the
  // crash-safe protocol above. `block.first_line` is normally left 0 and
  // assigned contiguously; a caller backfilling a shard at a known global
  // offset may pre-set it to any value >= the current end of the archive
  // (the line space is allowed to be sparse). `hook` may abort at each kill
  // point (fault injection); pass nullptr in production. Not thread-safe —
  // callers serialize commits.
  Status CommitCompressedBlock(std::string_view box_bytes, BlockInfo block,
                               const CommitHook& hook = nullptr);

  // Commits a block that has no bytes on purpose: a tombstoned hole carried
  // over from another archive (shard compaction copies a source shard's
  // blocks verbatim; a source block whose file was already given up on —
  // quarantined + tombstoned — must keep occupying its global line range in
  // the merged shard so later line numbers never shift). Assigns seq like
  // CommitCompressedBlock and honors a pre-set sparse `block.first_line`,
  // records `entry` (forced tombstoned, seq remapped) in quarantine.json,
  // then persists the manifest. The sidecar lands before the manifest so a
  // torn write can never leave the manifest naming an unexplained hole.
  // Not thread-safe — callers serialize commits.
  Status CommitTombstonedBlock(BlockInfo block, QuarantineEntry entry);

  // Runs a query command over all (non-pruned) blocks. Warm blocks are
  // served from the shared BoxCache: no file read, no metadata parse, and
  // only the capsules the cache lacks are decompressed.
  Result<ArchiveQueryResult> Query(std::string_view command);

  // Same result, with non-pruned blocks queried concurrently on
  // `num_threads` workers (each with its own engine but all sharing the
  // archive's BoxCache; §6 notes queries parallelize trivially at block
  // granularity).
  Result<ArchiveQueryResult> ParallelQuery(std::string_view command,
                                           size_t num_threads);

  // Query with a full decision record: `explain` receives one BlockExplain
  // per block — archive-pruned blocks carry block_pruned plus a reason
  // naming the keyword and filter that rejected them, queried blocks carry
  // the per-variable-vector / per-Capsule fate tree recorded by the engine
  // (see src/query/explain.h). Runs serially and bypasses the command
  // cache, so the record always describes a real execution.
  Result<ArchiveQueryResult> Explain(std::string_view command,
                                     QueryExplain* explain);

  const std::vector<BlockInfo>& blocks() const { return blocks_; }
  // The shared cache (null when box_cache_budget_bytes == 0).
  BoxCache* box_cache() const { return box_cache_.get(); }
  // Blocks currently excluded from queries (loaded from quarantine.json at
  // Open, grown by failed queries, shrunk by `loggrep_cli repair`).
  const QuarantineSet& quarantine() const { return quarantine_; }
  // Re-reads quarantine.json (picks up an external repair without reopening).
  Status ReloadQuarantine();
  // Per-query knobs the serving layer adjusts between requests: the retry
  // deadline feeding each query's RetryBudget, and whether block failures
  // degrade (206/PartialReport) or abort (the `?degrade=0` switch). NOT
  // thread-safe — callers serialize with queries, as loggrepd does under
  // its per-archive lock.
  void set_query_deadline_ns(uint64_t ns) { options_.query_deadline_ns = ns; }
  void set_degraded_queries(bool on) { options_.degraded_queries = on; }
  // The storage backend in effect (never null).
  StorageEnv* storage_env() const { return EnvOrDefault(options_.env); }
  const std::string& dir() const { return dir_; }
  // "block-<seq>.lgc" — the on-disk name of one block (exposed so the shard
  // compactor can read source blocks verbatim without an archive detour).
  static std::string BlockFileName(uint32_t seq);
  // "<dir>/archive.manifest".
  std::string ManifestPath() const;
  uint64_t total_lines() const;
  uint64_t total_raw_bytes() const;
  uint64_t total_stored_bytes() const;

 private:
  LogArchive(std::string dir, ArchiveOptions options);

  std::string BlockPath(uint32_t seq) const;
  std::string SerializeManifest() const;
  Status WriteManifest() const;
  // Retrying block read through the env (the query-path loader body).
  Result<std::string> LoadBlockBytes(uint32_t seq,
                                     const RetryBudget* budget) const;
  // Runs one commit-path storage operation under the retry policy (no
  // deadline budget: ingest durability beats latency).
  Status RetryStorage(const char* op_name,
                      const std::function<Status()>& op) const;
  // Records `cause` in the quarantine set and persists the sidecar (best
  // effort: a failing sidecar write must not fail the query on top of the
  // block failure; it is counted in "storage.quarantine.persist_failures").
  void QuarantineBlock(const BlockInfo& block, const Status& cause);
  // Appends the failure of `block` to `report` (and quarantines it when the
  // failure is fresh). Returns false when the failure must abort the query
  // instead (degraded queries disabled, or a query-syntax error).
  bool DegradeOnFailure(const BlockInfo& block, const Status& cause,
                        PartialReport* report);
  // When `block` is quarantined, appends the standing hole to `report` and
  // returns true (the caller skips the block without touching storage).
  bool SkipIfQuarantined(const BlockInfo& block, PartialReport* report) const;
  // Removes block-*.lgc files whose seq has no manifest entry (droppings of
  // commits that died after the block rename but before the manifest swap).
  void SweepUnreferencedBlocks() const;

  // Identity of block `seq` inside the shared cache.
  BoxKey KeyForBlock(uint32_t seq) const;
  // Prunes blocks against `required`; appends survivors to `to_query` and
  // counts the rest. Returns elapsed nanoseconds. When `explain` is
  // non-null, appends one BlockExplain per block (pruned ones annotated
  // with the keyword/filter that rejected them).
  uint64_t PruneBlocks(const std::vector<std::string>& required,
                       std::vector<const BlockInfo*>* to_query,
                       uint32_t* pruned, QueryExplain* explain = nullptr) const;

  std::string dir_;
  ArchiveOptions options_;
  uint64_t cache_namespace_ = 0;
  // Declared before engine_: the engine borrows the cache pointer.
  std::shared_ptr<BoxCache> box_cache_;
  LogGrepEngine engine_;
  std::vector<BlockInfo> blocks_;
  // Mutated only on the calling thread (ParallelQuery quarantines during
  // the serial collection phase, never from workers).
  QuarantineSet quarantine_;
};

// Keywords every matching entry MUST contain, extracted from a parsed query
// (used for block pruning; exposed for tests).
std::vector<std::string> RequiredKeywords(const QueryExpr& expr);

}  // namespace loggrep

#endif  // SRC_STORE_LOG_ARCHIVE_H_
