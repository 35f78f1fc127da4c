// loggrep_cli: a grep-for-compressed-logs command line tool over real files.
//
//   loggrep_cli compress <input.log> <output.lgc>
//   loggrep_cli grep <block.lgc> "<query command>"
//   loggrep_cli stat <block.lgc>
//   loggrep_cli demo <output.lgc>          (writes a synthetic sample block)
//   loggrep_cli archive-ingest <dir> <input.log>   (append a block)
//   loggrep_cli archive-grep <dir> "<query>"       (query with block pruning)
//   loggrep_cli archive-stat <dir>
//   loggrep_cli ingest <dir> <input.log|-> [block_mb] [threads]
//       (streaming pipelined ingest; '-' reads stdin; prints IngestMetrics)
//   loggrep_cli explain <block.lgc|archive-dir> "<query>"
//       (per-block / per-variable / per-Capsule decision tree; exits
//        non-zero if the pruned+cached+decompressed==visited invariant
//        fails)
//   loggrep_cli metrics <block.lgc|archive-dir> "<query>"
//       (runs the query, then prints the metrics registry in Prometheus
//        exposition format — or JSON with --stats-json)
//
//   loggrep_cli repair <dir>
//       (re-verifies quarantined blocks; reinstates healthy ones,
//        tombstones the rest)
//   loggrep_cli set-ingest <root> <tenant> <input.log> [ts_ns]
//       (appends to the tenant's active shard of the ArchiveSet at root,
//        creating the set / rolling shards as needed)
//   loggrep_cli set-query <root> "<query>" [tenant|-] [from_ns] [to_ns]
//       (federated query across shards; tenant "-" = all tenants; the
//        time range prunes whole shards before the scatter)
//   loggrep_cli set-repair <root>
//       (fleet-level repair: re-verifies quarantined blocks in every shard)
//   loggrep_cli set-stat <root>
//       (per-shard table: tenant, window, lines, bytes, sealed/expired)
//   loggrep_cli serve <root-dir> [port] [threads] [max_inflight]
//       (runs loggrepd: serves every archive under root-dir over HTTP;
//        prints the bound port; SIGTERM/SIGINT drain gracefully)
//   loggrep_cli remote-query <host:port> <archive> "<query>"
//       (queries a running loggrepd; prints hits; exit code follows the
//        same 0/3/1 contract as local queries — see
//        src/server/archive_service.h for the HTTP mapping)
//
// Global flags (any subcommand):
//   --stats-json     emit registry counters+histograms as sorted-key JSON
//   --trace=<file>   enable span tracing, write Chrome trace_event JSON
//                    (open in chrome://tracing or Perfetto)
//   --no-degrade     strict complete-or-error queries: any failed or
//                    quarantined block is exit 1 (local) / HTTP 500 (remote)
//                    instead of a partial result
//
// Exit codes: 0 = success, 1 = error, 2 = usage, 3 = PARTIAL (the query
// succeeded but one or more quarantined blocks left holes in the result —
// scripts must be able to tell a complete answer from a degraded one).
//
// Query commands follow §3: search strings joined by AND / OR / NOT,
// wildcards ('*', '?') within a single token, e.g.
//   loggrep_cli grep app.lgc "error AND dst:11.8.* NOT state:503"
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <filesystem>

#include "src/capsule/capsule_box.h"
#include "src/common/metrics.h"
#include "src/common/metrics_export.h"
#include "src/common/trace.h"
#include "src/core/engine.h"
#include "src/ingest/log_ingestor.h"
#include "src/query/explain.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/store/archive_set.h"
#include "src/store/log_archive.h"
#include "src/store/shard_router.h"
#include "src/store/verify.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace {

using namespace loggrep;

// Process-wide registry shared by every subcommand ("query.*", "ingest.*",
// "query.box_cache.*"); exported by `metrics` / --stats-json.
MetricsRegistry g_metrics;
bool g_stats_json = false;
// --no-degrade: strict complete-or-error queries. Locally this sets
// ArchiveOptions::degraded_queries = false; against a daemon it sends
// ?degrade=0 — the same contract either way (a block failure or standing
// quarantined hole is exit 1 / HTTP 500 instead of exit 3 / HTTP 206).
bool g_no_degrade = false;

// Exit code for a query that succeeded but is missing quarantined blocks.
constexpr int kExitPartial = 3;

// Prints the partial report (if any) to stderr and maps the result to the
// process exit code: complete -> 0, degraded -> kExitPartial.
int FinishQuery(const ArchiveQueryResult& result) {
  if (!result.partial.partial()) {
    return 0;
  }
  std::fprintf(stderr, "%s", result.partial.Render().c_str());
  return kExitPartial;
}

EngineOptions CliEngineOptions() {
  EngineOptions opts;
  opts.metrics = &g_metrics;
  return opts;
}

ArchiveOptions CliArchiveOptions() {
  ArchiveOptions opts;
  opts.metrics = &g_metrics;
  opts.engine.metrics = &g_metrics;
  opts.degraded_queries = !g_no_degrade;
  return opts;
}

void MaybePrintStatsJson() {
  if (g_stats_json) {
    std::printf("%s\n", ExportJson(g_metrics).c_str());
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return out.good();
}

int Compress(const std::string& in_path, const std::string& out_path) {
  std::string raw;
  if (!ReadFile(in_path, &raw)) {
    return 1;
  }
  LogGrepEngine engine;
  const std::string box = engine.CompressBlock(raw);
  if (!WriteFile(out_path, box)) {
    return 1;
  }
  std::printf("%zu -> %zu bytes (ratio %.2fx)\n", raw.size(), box.size(),
              box.empty() ? 0.0 : static_cast<double>(raw.size()) / box.size());
  return 0;
}

int Grep(const std::string& archive_path, const std::string& command) {
  std::string box;
  if (!ReadFile(archive_path, &box)) {
    return 1;
  }
  LogGrepEngine engine(CliEngineOptions());
  auto result = engine.Query(box, command);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const auto& [line, text] : result->hits) {
    std::printf("%llu:%s\n", static_cast<unsigned long long>(line + 1),
                text.c_str());
  }
  std::fprintf(stderr, "%zu matching entries (%llu capsules decompressed, "
               "%llu filtered by stamps)\n",
               result->hits.size(),
               static_cast<unsigned long long>(
                   result->locator.capsules_decompressed),
               static_cast<unsigned long long>(
                   result->locator.capsules_stamp_filtered));
  std::fprintf(stderr,
               "stages (ms): open %.2f  scan %.2f  stamp %.2f  "
               "decompress %.2f  reconstruct %.2f\n",
               result->locator.open_nanos / 1e6,
               result->locator.scan_nanos / 1e6,
               result->locator.stamp_filter_nanos / 1e6,
               result->locator.decompress_nanos / 1e6,
               result->locator.reconstruct_nanos / 1e6);
  MaybePrintStatsJson();
  return 0;
}

int Stat(const std::string& archive_path) {
  std::string bytes;
  if (!ReadFile(archive_path, &bytes)) {
    return 1;
  }
  auto box = CapsuleBox::Open(bytes);
  if (!box.ok()) {
    std::fprintf(stderr, "not a capsule box: %s\n",
                 box.status().ToString().c_str());
    return 1;
  }
  const CapsuleBoxMeta& meta = box->meta();
  std::printf("lines:      %u\n", meta.total_lines);
  std::printf("templates:  %zu\n", meta.templates.size());
  std::printf("capsules:   %zu\n", box->CapsuleCount());
  std::printf("layout:     %s\n", meta.padded ? "fixed-length (padded)"
                                              : "variable-length");
  std::printf("outliers:   %zu lines\n", meta.outlier_line_numbers.size());
  for (size_t g = 0; g < meta.groups.size() && g < 12; ++g) {
    const GroupMeta& group = meta.groups[g];
    int real = 0;
    int nominal = 0;
    int whole = 0;
    for (const VarMeta& v : group.vars) {
      if (v.is_real()) {
        ++real;
      } else if (v.is_nominal()) {
        ++nominal;
      } else {
        ++whole;
      }
    }
    std::printf("  group %-2zu rows=%-8u vars(real/nominal/whole)=%d/%d/%d  %s\n",
                g, group.row_count, real, nominal, whole,
                meta.templates[group.template_id].ToString().c_str());
  }
  if (meta.groups.size() > 12) {
    std::printf("  ... and %zu more groups\n", meta.groups.size() - 12);
  }
  return 0;
}

int Demo(const std::string& out_path) {
  const DatasetSpec* spec = FindDataset("Log G");
  const std::string raw = LogGenerator(*spec).Generate(1 << 20);
  const std::string raw_path = out_path + ".raw.log";
  if (!WriteFile(raw_path, raw)) {
    return 1;
  }
  std::printf("wrote sample log %s\n", raw_path.c_str());
  const int rc = Compress(raw_path, out_path);
  if (rc == 0) {
    std::printf("try: loggrep_cli grep %s \"Operation:ReadChunk and "
                "SATADiskId:7\"\n",
                out_path.c_str());
  }
  return rc;
}

Result<LogArchive> OpenOrCreateArchive(const std::string& dir) {
  if (std::filesystem::exists(dir + "/archive.manifest")) {
    return LogArchive::Open(dir);
  }
  return LogArchive::Create(dir);
}

int ArchiveIngest(const std::string& dir, const std::string& in_path) {
  std::string raw;
  if (!ReadFile(in_path, &raw)) {
    return 1;
  }
  auto archive = OpenOrCreateArchive(dir);
  if (!archive.ok()) {
    std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
    return 1;
  }
  if (Status s = archive->AppendBlock(raw); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("block %zu ingested: %zu bytes raw, archive now %llu lines\n",
              archive->blocks().size() - 1, raw.size(),
              static_cast<unsigned long long>(archive->total_lines()));
  return 0;
}

// Streaming pipelined ingest: reads `in_path` (or stdin when "-") in fixed
// chunks and feeds them to a LogIngestor, then prints the metrics snapshot.
int Ingest(const std::string& dir, const std::string& in_path,
           size_t block_mb, size_t threads) {
  IngestOptions options;
  options.target_block_bytes = block_mb << 20;
  options.num_workers = threads;
  options.metrics = &g_metrics;
  auto ingestor = LogIngestor::Start(dir, options);
  if (!ingestor.ok()) {
    std::fprintf(stderr, "%s\n", ingestor.status().ToString().c_str());
    return 1;
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    file.open(in_path, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
      return 1;
    }
    in = &file;
  }

  std::string chunk(1 << 20, '\0');
  while (in->good()) {
    in->read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const std::streamsize got = in->gcount();
    if (got <= 0) {
      break;
    }
    if (Status s = (*ingestor)->Append(
            std::string_view(chunk.data(), static_cast<size_t>(got)));
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (Status s = (*ingestor)->Finish(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  const IngestMetrics m = (*ingestor)->metrics();
  std::printf("blocks committed:   %llu (cut %llu)\n",
              static_cast<unsigned long long>(m.blocks_committed),
              static_cast<unsigned long long>(m.blocks_cut));
  std::printf("raw -> stored:      %.1f MB -> %.1f MB (ratio %.2fx)\n",
              m.raw_bytes / 1e6, m.stored_bytes / 1e6,
              m.stored_bytes > 0
                  ? static_cast<double>(m.raw_bytes) / m.stored_bytes
                  : 0.0);
  std::printf("lines:              %llu\n",
              static_cast<unsigned long long>(m.lines));
  std::printf("throughput:         %.1f MB/s over %.2f s wall\n",
              m.wall_seconds > 0 ? m.raw_bytes / 1e6 / m.wall_seconds : 0.0,
              m.wall_seconds);
  std::printf("queue depth hwm:    %llu (window)\n",
              static_cast<unsigned long long>(m.queue_depth_hwm));
  std::printf("producer stalled:   %.2f s\n", m.producer_stall_seconds);
  std::printf("stage seconds:      summary %.2f  compress %.2f  commit %.2f\n",
              m.summary_seconds, m.compress_seconds, m.commit_seconds);
  MaybePrintStatsJson();
  return 0;
}

int ArchiveGrep(const std::string& dir, const std::string& command) {
  auto archive = LogArchive::Open(dir, CliArchiveOptions());
  if (!archive.ok()) {
    std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
    return 1;
  }
  auto result = archive->Query(command);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const auto& [line, text] : result->hits) {
    std::printf("%llu:%s\n", static_cast<unsigned long long>(line + 1),
                text.c_str());
  }
  std::fprintf(stderr, "%zu hits; %u blocks pruned, %u queried\n",
               result->hits.size(), result->blocks_pruned,
               result->blocks_queried);
  std::fprintf(stderr,
               "stages (ms): prune %.2f  open %.2f  scan %.2f  stamp %.2f  "
               "decompress %.2f  reconstruct %.2f\n",
               result->locator.prune_nanos / 1e6,
               result->locator.open_nanos / 1e6,
               result->locator.scan_nanos / 1e6,
               result->locator.stamp_filter_nanos / 1e6,
               result->locator.decompress_nanos / 1e6,
               result->locator.reconstruct_nanos / 1e6);
  std::fprintf(stderr,
               "cache: %llu hits, %llu misses, %.1f MB saved\n",
               static_cast<unsigned long long>(result->locator.cache_hits),
               static_cast<unsigned long long>(result->locator.cache_misses),
               result->locator.bytes_saved / 1e6);
  MaybePrintStatsJson();
  return FinishQuery(*result);
}

// Runs the query with the shared registry attached and prints the registry
// afterwards — Prometheus exposition text by default, sorted-key JSON with
// --stats-json. Works against a single .lgc block or an archive directory.
int Metrics(const std::string& target, const std::string& command) {
  if (std::filesystem::is_directory(target)) {
    auto archive = LogArchive::Open(target, CliArchiveOptions());
    if (!archive.ok()) {
      std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
      return 1;
    }
    auto result = archive->Query(command);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%zu hits over %u blocks\n", result->hits.size(),
                 result->blocks_queried);
  } else {
    std::string box;
    if (!ReadFile(target, &box)) {
      return 1;
    }
    LogGrepEngine engine(CliEngineOptions());
    auto result = engine.Query(box, command);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%zu hits\n", result->hits.size());
  }
  const std::string out =
      g_stats_json ? ExportJson(g_metrics) + "\n" : ExportPrometheus(g_metrics);
  std::fputs(out.c_str(), stdout);
  return 0;
}

// Renders the per-block / per-variable-vector / per-Capsule decision tree
// and enforces the accounting invariant (non-zero exit on imbalance).
int Explain(const std::string& target, const std::string& command) {
  QueryExplain qe;
  int query_rc = 0;
  if (std::filesystem::is_directory(target)) {
    auto archive = LogArchive::Open(target, CliArchiveOptions());
    if (!archive.ok()) {
      std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
      return 1;
    }
    auto result = archive->Explain(command, &qe);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    query_rc = FinishQuery(*result);
  } else {
    std::string box;
    if (!ReadFile(target, &box)) {
      return 1;
    }
    qe.command = command;
    qe.blocks.emplace_back();
    LogGrepEngine engine(CliEngineOptions());
    auto result = engine.ExplainQuery(box, command, &qe.blocks[0]);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
  }
  std::fputs(qe.Render().c_str(), stdout);
  std::string detail;
  if (!qe.CheckInvariant(&detail)) {
    std::fprintf(stderr, "explain accounting invariant VIOLATED: %s\n",
                 detail.c_str());
    return 1;
  }
  MaybePrintStatsJson();
  return query_rc;
}

// fsck: re-hash stored bytes, decompress every Capsule, reconstruct every
// line and checksum against the manifest's content hashes. Read-only.
int Verify(const std::string& dir) {
  const VerifyReport report = VerifyArchive(dir);
  std::printf("%s\n", report.Summary().c_str());
  if (!report.fatal.ok()) {
    return 1;
  }
  for (const BlockVerifyResult& block : report.blocks) {
    std::printf("  block %-3u %8llu lines  %8llu bytes  %s\n", block.seq,
                static_cast<unsigned long long>(block.line_count),
                static_cast<unsigned long long>(block.stored_bytes),
                block.ok() ? "OK" : "CORRUPT");
  }
  return report.ok() ? 0 : 1;
}

// Self-healing pass: re-verify every quarantined block; reinstate the
// healthy, tombstone the rest. Exit 0 when every examined block was
// reinstated (or none were quarantined), 3 when tombstoned holes remain.
int Repair(const std::string& dir) {
  const RepairReport report = RepairArchive(dir);
  std::printf("%s\n", report.Summary().c_str());
  if (!report.ok()) {
    return 1;
  }
  return report.tombstoned == 0 ? 0 : kExitPartial;
}

Result<std::unique_ptr<ArchiveSet>> OpenOrCreateSet(const std::string& root) {
  ArchiveSetOptions options;
  options.archive = CliArchiveOptions();
  if (std::filesystem::exists(ArchiveSet::SetManifestPath(root))) {
    return ArchiveSet::Open(root, options);
  }
  return ArchiveSet::Create(root, options);
}

int SetIngest(const std::string& root, const std::string& tenant,
              const std::string& in_path, uint64_t ts_ns) {
  std::string raw;
  if (!ReadFile(in_path, &raw)) {
    return 1;
  }
  auto set = OpenOrCreateSet(root);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }
  auto receipt = (*set)->Append(tenant, raw, ts_ns);
  if (!receipt.ok()) {
    std::fprintf(stderr, "%s\n", receipt.status().ToString().c_str());
    return 1;
  }
  std::printf("shard %llu (%s%s): %llu lines at global line %llu; "
              "set now %zu live shards, %llu lines\n",
              static_cast<unsigned long long>(receipt->shard_id),
              tenant.c_str(),
              receipt->rolled
                  ? (std::string(", rolled: ") +
                     RollReasonName(receipt->roll_reason)).c_str()
                  : "",
              static_cast<unsigned long long>(receipt->lines),
              static_cast<unsigned long long>(receipt->first_global_line),
              (*set)->live_shard_count(),
              static_cast<unsigned long long>((*set)->total_lines()));
  return 0;
}

int SetQuery(const std::string& root, const std::string& command,
             const std::string& tenant, uint64_t from_ns, uint64_t to_ns) {
  ArchiveSetOptions options;
  options.archive = CliArchiveOptions();
  auto set = ArchiveSet::Open(root, options);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }
  SetQueryPredicate pred;
  if (!tenant.empty() && tenant != "-") {
    pred.tenant = tenant;
  }
  pred.from_ns = from_ns;
  pred.to_ns = to_ns;
  auto result = (*set)->Query(command, pred);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const auto& [line, text] : result->hits) {
    std::printf("%llu:%s\n", static_cast<unsigned long long>(line + 1),
                text.c_str());
  }
  std::fprintf(stderr,
               "%zu hits; shards: %llu pruned, %llu visited, %llu failed "
               "of %llu; blocks: %u pruned, %u queried\n",
               result->hits.size(),
               static_cast<unsigned long long>(result->shards_pruned),
               static_cast<unsigned long long>(result->shards_visited),
               static_cast<unsigned long long>(result->shards_failed),
               static_cast<unsigned long long>(result->shards_total),
               result->blocks_pruned, result->blocks_queried);
  MaybePrintStatsJson();
  if (!result->complete()) {
    std::fprintf(stderr, "%s", result->RenderPartial().c_str());
    return kExitPartial;
  }
  return 0;
}

int SetRepair(const std::string& root) {
  ArchiveSetOptions options;
  options.archive = CliArchiveOptions();
  auto set = ArchiveSet::Open(root, options);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }
  const SetRepairReport report = (*set)->RepairAll();
  std::printf("%s\n", report.Summary().c_str());
  if (!report.ok()) {
    return 1;
  }
  return report.tombstoned == 0 ? 0 : kExitPartial;
}

int SetCompact(const std::string& root) {
  ArchiveSetOptions options;
  options.archive = CliArchiveOptions();
  auto set = ArchiveSet::Open(root, options);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }
  const SetCompactionReport report = (*set)->Compact();
  std::printf("%s\n", report.Summary().c_str());
  return report.ok() ? 0 : 1;
}

int SetStat(const std::string& root) {
  ArchiveSetOptions options;
  options.archive = CliArchiveOptions();
  auto set = ArchiveSet::Open(root, options);
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    return 1;
  }
  if (Status s = (*set)->RefreshStats(); !s.ok()) {
    std::fprintf(stderr, "warning: stale stats: %s\n", s.ToString().c_str());
  }
  std::printf("shards: %zu live (%zu tenants)  lines: %llu  raw: %.1f MB  "
              "stored: %.1f MB\n",
              (*set)->live_shard_count(), (*set)->tenant_count(),
              static_cast<unsigned long long>((*set)->total_lines()),
              (*set)->total_raw_bytes() / 1e6,
              (*set)->total_stored_bytes() / 1e6);
  // Per-tenant compaction debt: sealed live shards are exactly what a
  // `set-compact` pass would merge, so their count and bytes measure how
  // much scatter width compaction can still buy back.
  struct Debt {
    size_t sealed_shards = 0;
    uint64_t raw_bytes = 0;
    uint64_t stored_bytes = 0;
  };
  std::map<std::string, Debt> debt;
  for (const ShardInfo& s : (*set)->shards()) {
    std::printf("  shard %-4llu %-20s window [%llu, %llu)  %8llu lines  "
                "%8.1f KB  %s%s%s\n",
                static_cast<unsigned long long>(s.id), s.tenant.c_str(),
                static_cast<unsigned long long>(s.window_start_ns),
                static_cast<unsigned long long>(s.window_end_ns),
                static_cast<unsigned long long>(s.lines),
                s.stored_bytes / 1e3, s.sealed ? "sealed" : "active",
                s.expired ? " EXPIRED" : "",
                s.superseded() ? " SUPERSEDED" : "");
    if (s.live() && s.sealed) {
      Debt& d = debt[s.tenant];
      ++d.sealed_shards;
      d.raw_bytes += s.raw_bytes;
      d.stored_bytes += s.stored_bytes;
    }
  }
  if (!debt.empty()) {
    std::printf("compaction debt (sealed live shards per tenant):\n");
    for (const auto& [tenant, d] : debt) {
      std::printf("  %-20s %zu shard(s)  raw %.1f MB  stored %.1f MB\n",
                  tenant.c_str(), d.sealed_shards, d.raw_bytes / 1e6,
                  d.stored_bytes / 1e6);
    }
  }
  return 0;
}

// serve-only flags: structured access-log destination and the slow-query
// capture threshold (0 keeps the daemon default).
std::string g_access_log_path;
uint64_t g_slow_ms = 0;

// Raised by the signal handler; the serve loop polls it. (A flag + poll is
// the only async-signal-safe way to reach the daemon's mutex-using drain.)
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

// Runs loggrepd over `root` until SIGTERM/SIGINT, then drains.
int Serve(const std::string& root, uint16_t port, size_t threads,
          size_t max_inflight) {
  DaemonOptions options;
  options.port = port;
  options.num_threads = threads;
  options.max_inflight_queries = max_inflight;
  options.service.root = root;
  options.metrics = &g_metrics;
  if (!g_access_log_path.empty()) {
    options.access_log.path = g_access_log_path;
  }
  if (g_slow_ms > 0) {
    options.slow_query_threshold_ns = g_slow_ms * 1'000'000ull;
  }
  LoggrepDaemon daemon(options);
  auto bound = daemon.Start();
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    return 1;
  }
  std::printf("loggrepd listening on %s:%u (root %s, %zu threads, "
              "max %zu in-flight queries)\n",
              options.host.c_str(), static_cast<unsigned>(*bound),
              root.c_str(), threads, max_inflight);
  std::fflush(stdout);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "loggrepd: draining...\n");
  daemon.Shutdown();
  std::fprintf(stderr, "loggrepd: drained, bye\n");
  return 0;
}

// Queries a running daemon; renders hits + partial report exactly like
// archive-grep and exits by the shared contract (200 -> 0, 206 -> 3,
// anything else -> 1).
int RemoteQuery(const std::string& endpoint, const std::string& archive,
                const std::string& command) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "endpoint must be host:port\n");
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bad port in %s\n", endpoint.c_str());
    return 2;
  }
  DaemonClient client(host, static_cast<uint16_t>(port));
  RemoteQueryOptions query_options;
  query_options.degrade = !g_no_degrade;
  auto result = client.Query(archive, command, query_options);
  if (!result.ok()) {
    std::fprintf(stderr, "remote query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (!result->ok()) {
    std::fprintf(stderr, "HTTP %d: %s\n", result->http_status,
                 result->error.c_str());
    return ExitCodeForHttpStatus(result->http_status);
  }
  for (const auto& [line, text] : result->hits) {
    std::printf("%llu:%s\n", static_cast<unsigned long long>(line + 1),
                text.c_str());
  }
  std::fprintf(stderr, "%zu hits (HTTP %d%s)\n", result->hits.size(),
               result->http_status,
               result->complete ? "" : ", PARTIAL");
  if (!result->complete) {
    std::fprintf(stderr, "lines missing: %llu\n",
                 static_cast<unsigned long long>(result->lines_missing));
  }
  return ExitCodeForHttpStatus(result->http_status);
}

int ArchiveStat(const std::string& dir) {
  auto archive = LogArchive::Open(dir);
  if (!archive.ok()) {
    std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
    return 1;
  }
  std::error_code ec;
  const uint64_t manifest_bytes =
      std::filesystem::file_size(archive->ManifestPath(), ec);
  if (ec) {
    std::fprintf(stderr, "%s: %s\n", archive->ManifestPath().c_str(),
                 ec.message().c_str());
    return 1;
  }
  const double raw = static_cast<double>(archive->total_raw_bytes());
  const double stored = static_cast<double>(archive->total_stored_bytes());
  std::printf("blocks: %zu  lines: %llu  raw: %.1f MB  stored: %.1f MB "
              "(ratio %.2fx)  manifest: %llu bytes "
              "(ratio with manifest %.2fx)\n",
              archive->blocks().size(),
              static_cast<unsigned long long>(archive->total_lines()),
              raw / 1e6, stored / 1e6, stored > 0 ? raw / stored : 0.0,
              static_cast<unsigned long long>(manifest_bytes),
              raw / (stored + manifest_bytes));
  for (const BlockInfo& b : archive->blocks()) {
    std::printf("  block %-3u lines [%llu, %llu)  %8llu -> %8llu bytes  "
                "bloom %7zu bytes fill %.2f\n",
                b.seq, static_cast<unsigned long long>(b.first_line),
                static_cast<unsigned long long>(b.first_line + b.line_count),
                static_cast<unsigned long long>(b.raw_bytes),
                static_cast<unsigned long long>(b.stored_bytes),
                b.shingles.SizeBytes(), b.shingles.FillRatio());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  loggrep_cli compress <input.log> <output.lgc>\n"
               "  loggrep_cli grep <block.lgc> \"<query>\"\n"
               "  loggrep_cli stat <block.lgc>\n"
               "  loggrep_cli demo <output.lgc>\n"
               "  loggrep_cli archive-ingest <dir> <input.log>\n"
               "  loggrep_cli archive-grep <dir> \"<query>\"\n"
               "  loggrep_cli archive-stat <dir>\n"
               "  loggrep_cli verify <dir>\n"
               "  loggrep_cli repair <dir>\n"
               "  loggrep_cli set-ingest <root> <tenant> <input.log> "
               "[ts_ns]\n"
               "  loggrep_cli set-query <root> \"<query>\" [tenant|-] "
               "[from_ns] [to_ns]\n"
               "  loggrep_cli set-repair <root>\n"
               "  loggrep_cli set-compact <root>\n"
               "  loggrep_cli set-stat <root>\n"
               "  loggrep_cli ingest <dir> <input.log|-> [block_mb] "
               "[threads]\n"
               "  loggrep_cli explain <block.lgc|archive-dir> \"<query>\"\n"
               "  loggrep_cli metrics <block.lgc|archive-dir> \"<query>\"\n"
               "  loggrep_cli serve <root-dir> [port] [threads] "
               "[max_inflight]\n"
               "  loggrep_cli remote-query <host:port> <archive> "
               "\"<query>\"\n"
               "flags: --stats-json   --trace=<file>   --no-degrade\n"
               "serve flags: --access-log=<path> (JSON-lines per-request "
               "log)   --slow-ms=<n> (slow-query capture threshold)\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 partial result "
               "(quarantined blocks; --no-degrade turns 3 into 1)\n");
  return 2;
}

}  // namespace

int main(int raw_argc, char** raw_argv) {
  // Strip global flags (anywhere on the command line).
  std::string trace_path;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(raw_argc));
  for (int i = 0; i < raw_argc; ++i) {
    const std::string_view arg = raw_argv[i];
    if (arg == "--stats-json") {
      g_stats_json = true;
    } else if (arg == "--no-degrade") {
      g_no_degrade = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--access-log=", 0) == 0) {
      g_access_log_path = arg.substr(13);
    } else if (arg.rfind("--slow-ms=", 0) == 0) {
      g_slow_ms = std::strtoull(arg.substr(10).data(), nullptr, 10);
    } else {
      args.push_back(raw_argv[i]);
    }
  }
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();
  if (!trace_path.empty()) {
    Tracer::Global().Enable(true);
  }
  const auto finish = [&trace_path](int rc) {
    if (!trace_path.empty() &&
        !Tracer::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return rc == 0 ? 1 : rc;
    }
    return rc;
  };
  if (argc < 3) {
    return finish(Usage());
  }
  const std::string cmd = argv[1];
  if (cmd == "compress" && argc == 4) {
    return finish(Compress(argv[2], argv[3]));
  }
  if (cmd == "grep" && argc == 4) {
    return finish(Grep(argv[2], argv[3]));
  }
  if (cmd == "stat" && argc == 3) {
    return finish(Stat(argv[2]));
  }
  if (cmd == "demo" && argc == 3) {
    return finish(Demo(argv[2]));
  }
  if (cmd == "archive-ingest" && argc == 4) {
    return finish(ArchiveIngest(argv[2], argv[3]));
  }
  if (cmd == "archive-grep" && argc == 4) {
    return finish(ArchiveGrep(argv[2], argv[3]));
  }
  if (cmd == "archive-stat" && argc == 3) {
    return finish(ArchiveStat(argv[2]));
  }
  if (cmd == "verify" && argc == 3) {
    return finish(Verify(argv[2]));
  }
  if (cmd == "repair" && argc == 3) {
    return finish(Repair(argv[2]));
  }
  if (cmd == "set-ingest" && (argc == 5 || argc == 6)) {
    const uint64_t ts_ns =
        argc == 6 ? std::strtoull(argv[5], nullptr, 10) : 0;
    return finish(SetIngest(argv[2], argv[3], argv[4], ts_ns));
  }
  if (cmd == "set-query" && argc >= 4 && argc <= 7) {
    const std::string tenant = argc >= 5 ? argv[4] : "-";
    const uint64_t from_ns =
        argc >= 6 ? std::strtoull(argv[5], nullptr, 10) : 0;
    const uint64_t to_ns =
        argc >= 7 ? std::strtoull(argv[6], nullptr, 10) : UINT64_MAX;
    return finish(SetQuery(argv[2], argv[3], tenant, from_ns, to_ns));
  }
  if (cmd == "set-repair" && argc == 3) {
    return finish(SetRepair(argv[2]));
  }
  if (cmd == "set-compact" && argc == 3) {
    return finish(SetCompact(argv[2]));
  }
  if (cmd == "set-stat" && argc == 3) {
    return finish(SetStat(argv[2]));
  }
  if (cmd == "explain" && argc == 4) {
    return finish(Explain(argv[2], argv[3]));
  }
  if (cmd == "metrics" && argc == 4) {
    return finish(Metrics(argv[2], argv[3]));
  }
  if (cmd == "serve" && argc >= 3 && argc <= 6) {
    const int port = argc >= 4 ? std::atoi(argv[3]) : 0;
    const size_t threads =
        argc >= 5 ? static_cast<size_t>(std::strtoul(argv[4], nullptr, 10)) : 8;
    const size_t max_inflight =
        argc >= 6 ? static_cast<size_t>(std::strtoul(argv[5], nullptr, 10)) : 16;
    if (port < 0 || port > 65535 || threads == 0) {
      std::fprintf(stderr, "bad port/threads\n");
      return finish(2);
    }
    return finish(Serve(argv[2], static_cast<uint16_t>(port), threads,
                        max_inflight));
  }
  if (cmd == "remote-query" && argc == 5) {
    return finish(RemoteQuery(argv[2], argv[3], argv[4]));
  }
  if (cmd == "ingest" && argc >= 4 && argc <= 6) {
    const size_t block_mb =
        argc >= 5 ? static_cast<size_t>(std::strtoul(argv[4], nullptr, 10)) : 64;
    const size_t threads =
        argc >= 6 ? static_cast<size_t>(std::strtoul(argv[5], nullptr, 10)) : 0;
    if (block_mb == 0) {
      std::fprintf(stderr, "block_mb must be > 0\n");
      return finish(2);
    }
    return finish(Ingest(argv[2], argv[3], block_mb, threads));
  }
  return finish(Usage());
}
