// LogGrepEngine: the library's public API (the whole pipeline of Fig. 2).
//
// Compression: Parser (static patterns) -> Extractor (runtime patterns) ->
// Assembler (Capsules + stamps) -> Packer (CapsuleBox). Query: Locator
// (pattern + stamp filtering, fixed-length matching) -> Reconstructor, with
// one BoxCache in front holding three kinds of entry under one byte budget:
// whole results per (box identity, command) — the paper's query cache (§3)
// — plus opened boxes and decompressed Capsules, so warm queries skip file
// reads, metadata parses and decompression.
// Box identity is a BoxKey (two independent 64-bit hashes + size, or an
// archive-assigned sequence key), so a hash collision between two different
// blocks can no longer serve the wrong block's hits.
//
// Query and QueryBox may be called from many threads at once: everything
// that outlives one call lives in the (thread-safe) BoxCache, so one engine
// serves every worker of a threaded archive query.
//
// EngineOptions exposes one switch per technique so the §6.3 ablation
// versions ("w/o real", "w/o nomi", "w/o stamp", "w/o fixed", "w/o cache")
// and LogGrep-SP (§2.2) are configurations of the same engine.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/capsule/assembler.h"
#include "src/codec/codec.h"
#include "src/common/metrics.h"
#include "src/parser/block_parser.h"
#include "src/query/box_cache.h"
#include "src/query/locator.h"
#include "src/query/query_cache.h"

namespace loggrep {

struct EngineOptions {
  bool use_real = true;     // runtime patterns in real variable vectors
  bool use_nominal = true;  // runtime patterns in nominal variable vectors
  bool use_stamps = true;   // Capsule-stamp filtering during queries
  bool use_fixed = true;    // fixed-length padding + Boyer-Moore matching
  bool use_cache = true;    // query result cache (§3)
  bool static_only = false; // LogGrep-SP: static patterns only

  // The cache behind both switches: results when `use_cache` is set,
  // opened boxes and decompressed Capsules when `use_box_cache` is set.
  // When `box_cache` is null and either switch is on, the engine owns a
  // private cache sized by `box_cache_budget_bytes`, or by at most
  // kResultsOnlyBudgetBytes when it holds results only (`use_box_cache`
  // off). Pass an external cache to share it across engines.
  bool use_box_cache = true;
  size_t box_cache_budget_bytes = 256ull << 20;
  BoxCache* box_cache = nullptr;  // borrowed; must outlive the engine
  static constexpr size_t kResultsOnlyBudgetBytes = 64ull << 20;

  // Optional registry for query-side counters ("query.*",
  // "query.box_cache.*"). Borrowed; must outlive the engine.
  MetricsRegistry* metrics = nullptr;

  const Codec* codec = nullptr;  // defaults to the LZMA stand-in (XzCodec)
  TemplateMinerOptions miner;
  TreeExtractorOptions tree;
};

struct QueryResult {
  QueryHits hits;        // (line number, original text), in block order
  // Cost accounting. For cache hits this is the snapshot of the execution
  // that originally produced the result (not zeros); a result a
  // QuerySession refined from its previous hits ran no locate stage, so its
  // snapshot is zero.
  LocatorStats locator;
  bool from_cache = false;
};

class LogGrepEngine {
 public:
  // Produces the serialized CapsuleBox bytes for `key` on a cache miss.
  using BoxLoader = std::function<Result<std::string>()>;

  explicit LogGrepEngine(EngineOptions options = {});

  // Compresses one log block into serialized CapsuleBox bytes.
  std::string CompressBlock(std::string_view text) const;

  // Runs a grep-like query command against a CapsuleBox. Box identity is
  // content-derived (BoxKey::FromBytes).
  //
  // `explain` (optional) attaches a recorder that fills it with the
  // per-variable-vector, per-Capsule decision tree (see
  // src/query/explain.h). An explained execution bypasses the result cache
  // in both directions: the record must describe a real execution, and a
  // synthetic cache-bypass run must not overwrite the cache's cost
  // snapshots.
  Result<QueryResult> Query(std::string_view box_bytes,
                            std::string_view command,
                            BlockExplain* explain = nullptr);

  // Same, but with an externally assigned identity and a lazy loader: on a
  // warm box-cache entry the loader is never invoked, so callers that read
  // box bytes from disk (LogArchive) skip the file read entirely.
  Result<QueryResult> QueryBox(const BoxKey& key, const BoxLoader& load,
                               std::string_view command,
                               BlockExplain* explain = nullptr);

  const EngineOptions& options() const { return options_; }
  // The effective cache (owned or borrowed); null when both `use_cache` and
  // `use_box_cache` are off.
  BoxCache* box_cache() const { return cache_; }
  // The cached result of `command` against `key`, counted as a command
  // cache hit; nullopt on a miss or with `use_cache` off.
  std::optional<QueryResult> LookupResult(const BoxKey& key,
                                          std::string_view command);
  // Stores `hits` as the result of `command` against `key` (a no-op with
  // `use_cache` off). For answers derived without running the query —
  // QuerySession's refinements — which must equal what QueryBox returns.
  // The stored cost snapshot is zero: no locate stage ran.
  void CacheResult(const BoxKey& key, std::string_view command,
                   const QueryHits& hits);
  // Drops every cached result (sessions call this on Reset so a reset can
  // never serve pre-reset hits). Opened boxes and Capsules stay warm: they
  // are identity-keyed bytes, not query answers.
  void ClearCache();

 private:
  Result<QueryResult> QueryInternal(const BoxKey& key,
                                    std::string_view inline_bytes,
                                    const BoxLoader* load,
                                    std::string_view command,
                                    BlockExplain* explain);

  EngineOptions options_;
  std::unique_ptr<BoxCache> owned_cache_;
  BoxCache* cache_ = nullptr;  // owned_cache_ or options_.box_cache
};

}  // namespace loggrep

#endif  // SRC_CORE_ENGINE_H_
