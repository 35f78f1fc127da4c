#include "src/core/engine.h"

#include <algorithm>
#include <optional>

#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/query/query_parser.h"
#include "src/query/reconstructor.h"

namespace loggrep {
namespace {

// Decompression and stamp checks are timed where they run and accounted to
// their own stages; the scan and reconstruct stages that trigger them
// subtract what they triggered, so the stages never count a nanosecond twice.
uint64_t ChargedNanos(const LocatorStats& stats) {
  return stats.decompress_nanos + stats.stamp_filter_nanos;
}
uint64_t ExclusiveNanos(uint64_t wall, uint64_t charged) {
  return wall > charged ? wall - charged : 0;
}

// Boolean evaluation state: one RowSet per group plus one for raw outliers.
struct Evaluation {
  std::vector<RowSet> groups;
  RowSet outliers = RowSet::None(0);
};

Evaluation EvaluateTerm(BoxQuerier& querier, const SearchTerm& term) {
  const CapsuleBoxMeta& meta = querier.box().meta();
  Evaluation ev;
  ev.groups.reserve(meta.groups.size());
  for (uint32_t g = 0; g < meta.groups.size(); ++g) {
    RowSet rows = RowSet::All(meta.groups[g].row_count);
    for (const std::string& kw : term.keywords) {
      if (rows.IsEmpty()) {
        break;
      }
      rows = rows.IntersectWith(querier.MatchKeywordInGroup(g, kw));
    }
    ev.groups.push_back(std::move(rows));
  }
  const uint32_t outlier_universe =
      static_cast<uint32_t>(meta.outlier_line_numbers.size());
  ev.outliers = RowSet::All(outlier_universe);
  for (const std::string& kw : term.keywords) {
    if (ev.outliers.IsEmpty()) {
      break;
    }
    ev.outliers = ev.outliers.IntersectWith(querier.MatchKeywordInOutliers(kw));
  }
  return ev;
}

Evaluation EvaluateAll(BoxQuerier& querier) {
  const CapsuleBoxMeta& meta = querier.box().meta();
  Evaluation ev;
  for (const GroupMeta& g : meta.groups) {
    ev.groups.push_back(RowSet::All(g.row_count));
  }
  ev.outliers =
      RowSet::All(static_cast<uint32_t>(meta.outlier_line_numbers.size()));
  return ev;
}

Evaluation EvaluateExpr(BoxQuerier& querier, const QueryExpr& expr) {
  switch (expr.kind) {
    case QueryExpr::Kind::kTerm:
      return EvaluateTerm(querier, expr.term);
    case QueryExpr::Kind::kAnd: {
      Evaluation l = EvaluateExpr(querier, *expr.left);
      const Evaluation r = EvaluateExpr(querier, *expr.right);
      for (size_t g = 0; g < l.groups.size(); ++g) {
        l.groups[g] = l.groups[g].IntersectWith(r.groups[g]);
      }
      l.outliers = l.outliers.IntersectWith(r.outliers);
      return l;
    }
    case QueryExpr::Kind::kOr: {
      Evaluation l = EvaluateExpr(querier, *expr.left);
      const Evaluation r = EvaluateExpr(querier, *expr.right);
      for (size_t g = 0; g < l.groups.size(); ++g) {
        l.groups[g] = l.groups[g].UnionWith(r.groups[g]);
      }
      l.outliers = l.outliers.UnionWith(r.outliers);
      return l;
    }
    case QueryExpr::Kind::kNot: {
      Evaluation l = expr.left != nullptr ? EvaluateExpr(querier, *expr.left)
                                          : EvaluateAll(querier);
      const Evaluation r = EvaluateExpr(querier, *expr.right);
      for (size_t g = 0; g < l.groups.size(); ++g) {
        l.groups[g] = l.groups[g].IntersectWith(r.groups[g].Complement());
      }
      l.outliers = l.outliers.IntersectWith(r.outliers.Complement());
      return l;
    }
  }
  return Evaluation{};
}

}  // namespace

LogGrepEngine::LogGrepEngine(EngineOptions options)
    : options_(options), cache_(options.box_cache) {
  if (options_.codec == nullptr) {
    options_.codec = &GetXzCodec();
  }
  if (cache_ == nullptr && (options_.use_box_cache || options_.use_cache)) {
    BoxCacheOptions copts;
    copts.byte_budget =
        options_.use_box_cache
            ? options_.box_cache_budget_bytes
            : std::min(options_.box_cache_budget_bytes,
                       EngineOptions::kResultsOnlyBudgetBytes);
    copts.metrics = options_.metrics;
    owned_cache_ = std::make_unique<BoxCache>(copts);
    cache_ = owned_cache_.get();
  }
}

std::optional<QueryResult> LogGrepEngine::LookupResult(
    const BoxKey& key, std::string_view command) {
  if (!options_.use_cache) {
    return std::nullopt;
  }
  std::shared_ptr<const CachedQuery> cached = cache_->LookupResult(key, command);
  if (cached == nullptr) {
    return std::nullopt;
  }
  QueryResult result;
  result.hits = cached->hits;
  result.locator = cached->locator;  // what the original execution cost
  result.from_cache = true;
  if (options_.metrics != nullptr) {
    options_.metrics->GetOrCreate("query.command_cache_hits")->Increment();
  }
  return result;
}

void LogGrepEngine::CacheResult(const BoxKey& key, std::string_view command,
                                const QueryHits& hits) {
  if (options_.use_cache) {
    cache_->InsertResult(key, command, CachedQuery{hits, LocatorStats{}});
  }
}

void LogGrepEngine::ClearCache() {
  if (cache_ != nullptr) {
    cache_->ClearResults();
  }
}

std::string LogGrepEngine::CompressBlock(std::string_view text) const {
  const BlockParser parser(options_.miner);
  const ParsedBlock parsed = parser.Parse(text);

  CapsuleBoxBuilder builder(*options_.codec);
  AssemblerOptions aopts;
  aopts.use_real = options_.use_real;
  aopts.use_nominal = options_.use_nominal;
  aopts.static_only = options_.static_only;
  aopts.padded = options_.use_fixed;
  aopts.tree = options_.tree;
  const Assembler assembler(aopts, &builder);

  CapsuleBoxMeta meta;
  meta.codec_id = options_.codec->id();
  meta.padded = options_.use_fixed;
  meta.total_lines = parsed.total_lines;
  meta.templates = parsed.templates;
  for (const ParsedGroup& pg : parsed.groups) {
    GroupMeta gm;
    gm.template_id = pg.template_id;
    gm.row_count = static_cast<uint32_t>(pg.line_numbers.size());
    gm.line_numbers = pg.line_numbers;
    for (const std::vector<std::string>& vv : pg.var_vectors) {
      gm.vars.push_back(assembler.AssembleVariable(vv));
    }
    meta.groups.push_back(std::move(gm));
  }
  if (!parsed.outlier_lines.empty()) {
    std::vector<std::string_view> views(parsed.outlier_lines.begin(),
                                        parsed.outlier_lines.end());
    meta.outlier_capsule = builder.AddCapsule(BuildDelimitedBlob(views));
    meta.outlier_line_numbers = parsed.outlier_line_numbers;
  }
  return std::move(builder).Finish(meta);
}

Result<QueryResult> LogGrepEngine::Query(std::string_view box_bytes,
                                         std::string_view command,
                                         BlockExplain* explain) {
  return QueryInternal(BoxKey::FromBytes(box_bytes), box_bytes, nullptr,
                       command, explain);
}

Result<QueryResult> LogGrepEngine::QueryBox(const BoxKey& key,
                                            const BoxLoader& load,
                                            std::string_view command,
                                            BlockExplain* explain) {
  return QueryInternal(key, std::string_view(), &load, command, explain);
}

Result<QueryResult> LogGrepEngine::QueryInternal(const BoxKey& key,
                                                 std::string_view inline_bytes,
                                                 const BoxLoader* load,
                                                 std::string_view command,
                                                 BlockExplain* explain) {
  const TraceSpan query_span("engine.query", "query");
  // Results are cached per (box identity, command): the same command against
  // another block must not serve stale hits, and the identity is a dual hash
  // plus size so a single 64-bit collision cannot alias two blocks.
  // Explained executions bypass the result cache: the decision tree must
  // describe what this run actually did.
  const bool cache_result = options_.use_cache && explain == nullptr;
  if (cache_result) {
    if (std::optional<QueryResult> cached = LookupResult(key, command)) {
      return std::move(*cached);
    }
  }

  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  if (!expr.ok()) {
    return expr.status();
  }

  // Open stage: through the shared cache when enabled (a warm entry skips
  // the loader — typically a file read — and the metadata parse), otherwise
  // a local zero-copy open.
  LocatorStats open_stats;
  BoxCache* shared = options_.use_box_cache ? cache_ : nullptr;
  std::shared_ptr<const OpenedBox> opened;  // pins cache entry if used
  std::string local_bytes;                  // owns bytes on the uncached path
  std::optional<CapsuleBox> local_box;
  const CapsuleBox* box = nullptr;
  {
    const TraceSpan open_span("engine.open", "query");
    const WallTimer open_timer;
    if (shared != nullptr) {
      bool was_hit = false;
      auto loader = [&]() -> Result<std::string> {
        if (load != nullptr) {
          return (*load)();
        }
        return std::string(inline_bytes);
      };
      Result<std::shared_ptr<const OpenedBox>> entry =
          shared->GetOrOpenBox(key, loader, &was_hit);
      if (!entry.ok()) {
        return entry.status();
      }
      opened = std::move(*entry);
      box = &opened->box();
      if (was_hit) {
        ++open_stats.cache_hits;
        open_stats.bytes_saved += opened->bytes().size();
      } else {
        ++open_stats.cache_misses;
      }
    } else {
      std::string_view bytes = inline_bytes;
      if (load != nullptr) {
        Result<std::string> loaded = (*load)();
        if (!loaded.ok()) {
          return loaded.status();
        }
        local_bytes = std::move(*loaded);
        bytes = local_bytes;
      }
      Result<CapsuleBox> parsed = CapsuleBox::Open(bytes);
      if (!parsed.ok()) {
        return parsed.status();
      }
      local_box.emplace(std::move(*parsed));
      box = &*local_box;
    }
    open_stats.open_nanos = open_timer.ElapsedNanos();
  }

  LocatorOptions lopts;
  lopts.use_stamps = options_.use_stamps;
  lopts.use_bm = options_.use_fixed;
  BoxQuerier querier(*box, lopts, shared, key);
  std::optional<ExplainRecorder> recorder;
  if (explain != nullptr) {
    recorder.emplace(explain);
    querier.AttachExplain(&*recorder);
  }

  const WallTimer scan_timer;
  uint64_t scan_nanos = 0;
  uint64_t charged_by_scan = 0;
  Evaluation ev;
  {
    const TraceSpan scan_span("engine.scan", "query");
    ev = EvaluateExpr(querier, **expr);
    scan_nanos = scan_timer.ElapsedNanos();
    charged_by_scan = ChargedNanos(querier.stats());
  }
  if (!querier.status().ok()) {
    return querier.status();
  }

  const TraceSpan reconstruct_span("engine.reconstruct", "query");
  if (recorder.has_value()) {
    // Capsules opened from here on are for rendering matched rows, not
    // matching; attribute them to a dedicated stage.
    recorder->BeginStage("reconstruct");
  }
  const WallTimer reconstruct_timer;
  Reconstructor reconstructor(&querier);
  QueryResult result;
  const CapsuleBoxMeta& meta = box->meta();
  for (uint32_t g = 0; g < ev.groups.size(); ++g) {
    for (uint32_t row : ev.groups[g].ToRows()) {
      result.hits.emplace_back(meta.groups[g].line_numbers[row], std::string());
      reconstructor.RenderRowTo(g, row, &result.hits.back().second);
    }
  }
  for (uint32_t i : ev.outliers.ToRows()) {
    result.hits.emplace_back(meta.outlier_line_numbers[i], std::string());
    reconstructor.RenderOutlierTo(i, &result.hits.back().second);
  }
  if (!querier.status().ok()) {
    return querier.status();
  }
  // Restore global block order (entries within one group are already
  // ordered; this is the cross-group merge of §3).
  std::sort(result.hits.begin(), result.hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const uint64_t reconstruct_nanos = reconstruct_timer.ElapsedNanos();

  result.locator = querier.stats();
  result.locator.scan_nanos = ExclusiveNanos(scan_nanos, charged_by_scan);
  // Reconstruction fetches the Capsules of matched rows the scan never
  // needed; their decompression is already in decompress_nanos.
  result.locator.reconstruct_nanos = ExclusiveNanos(
      reconstruct_nanos, ChargedNanos(result.locator) - charged_by_scan);
  result.locator.Accumulate(open_stats);

  if (explain != nullptr) {
    explain->hits = result.hits.size();
  }

  if (options_.metrics != nullptr) {
    options_.metrics->GetOrCreate("query.count")->Increment();
    options_.metrics->GetOrCreate("query.bytes_decompressed")
        ->Add(result.locator.bytes_decompressed);
    // Per-query stage latencies feed histograms (p50/p95/p99 snapshots);
    // histogram sums replace the old per-stage cumulative counters.
    options_.metrics->GetOrCreateHistogram("query.open_ns")
        ->Record(result.locator.open_nanos);
    options_.metrics->GetOrCreateHistogram("query.scan_ns")
        ->Record(result.locator.scan_nanos);
    options_.metrics->GetOrCreateHistogram("query.decompress_ns")
        ->Record(result.locator.decompress_nanos);
    options_.metrics->GetOrCreateHistogram("query.stamp_filter_ns")
        ->Record(result.locator.stamp_filter_nanos);
    options_.metrics->GetOrCreateHistogram("query.reconstruct_ns")
        ->Record(result.locator.reconstruct_nanos);
  }

  if (cache_result) {
    cache_->InsertResult(key, command,
                         CachedQuery{result.hits, result.locator});
  }
  return result;
}

}  // namespace loggrep
