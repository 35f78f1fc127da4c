// Layer probes of the traced run: each times one public call from outside,
// on the inputs of the workload being traced.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "perfbench/bench.h"
#include "src/capsule/capsule_box.h"
#include "src/codec/codec.h"
#include "src/core/engine.h"
#include "src/parser/block_parser.h"
#include "src/server/archive_service.h"
#include "src/server/client.h"
#include "src/server/daemon.h"

namespace perfbench {

using loggrep::Result;

namespace {

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

}  // namespace

void ProbeBlockLayers(const std::vector<ProbeBlock>& blocks, Tracer* tracer,
                      Report* report) {
  uint64_t raw_bytes = 0;
  uint64_t parse_ns = 0;
  uint64_t compress_ns = 0;
  uint64_t summary_ns = 0;
  uint64_t open_ns = 0;
  uint64_t box_bytes = 0;
  uint64_t capsule_raw = 0;
  uint64_t capsule_stored = 0;
  uint64_t encode_ns = 0;
  uint64_t decode_ns = 0;
  std::vector<double> querybox_ms;

  const loggrep::LogGrepEngine engine;
  const loggrep::BlockParser parser(engine.options().miner);
  for (const ProbeBlock& probe : blocks) {
    const std::string_view block = probe.text;
    raw_bytes += block.size();
    uint64_t t = NowNs();
    {
      const Span span(tracer, "parser.parse");
      const loggrep::ParsedBlock parsed = parser.Parse(block);
      if (parsed.total_lines == 0) {
        report->Fail("parser returned no lines for a non-empty block");
      }
    }
    parse_ns += NowNs() - t;

    t = NowNs();
    std::string box;
    {
      const Span span(tracer, "core.compress");
      box = engine.CompressBlock(block);
    }
    compress_ns += NowNs() - t;
    box_bytes += box.size();

    t = NowNs();
    {
      const Span span(tracer, "store.summary");
      loggrep::BlockInfo info = loggrep::BuildBlockSummary(block, 10);
      if (info.raw_bytes != block.size()) {
        report->Fail("block summary raw_bytes mismatch");
      }
    }
    summary_ns += NowNs() - t;

    report->Attempt();
    t = NowNs();
    Result<loggrep::CapsuleBox> opened = [&] {
      const Span span(tracer, "capsule.box_open");
      return loggrep::CapsuleBox::Open(box);
    }();
    open_ns += NowNs() - t;
    if (!opened.ok()) {
      report->Fail("CapsuleBox::Open: " + opened.status().ToString());
      continue;
    }
    Result<const loggrep::Codec*> codec =
        loggrep::CodecById(opened->meta().codec_id);
    if (!codec.ok()) {
      report->Fail("unknown codec id in a fresh box");
      continue;
    }
    for (uint32_t id = 0; id < opened->CapsuleCount(); ++id) {
      t = NowNs();
      Result<std::string> raw = [&] {
        const Span span(tracer, "codec.decode");
        return opened->ReadCapsule(id);
      }();
      decode_ns += NowNs() - t;
      Result<uint64_t> stored = opened->CapsuleCompressedSize(id);
      if (!raw.ok() || !stored.ok()) {
        report->Fail("capsule " + std::to_string(id) + " unreadable");
        break;
      }
      t = NowNs();
      {
        const Span span(tracer, "codec.encode");
        const std::string again = (*codec)->Compress(*raw);
        if (again.empty()) {
          report->Fail("codec produced an empty blob");
        }
      }
      encode_ns += NowNs() - t;
      capsule_raw += raw->size();
      capsule_stored += *stored;
    }

    // Cold QueryBox: a fresh engine with both caches off, per command.
    for (const std::string& command : probe.commands) {
      loggrep::EngineOptions options;
      options.use_cache = false;
      options.use_box_cache = false;
      loggrep::LogGrepEngine cold(options);
      const loggrep::BoxKey key =
          loggrep::BoxKey::ForSequence(loggrep::BoxKey::NextNamespaceId(), 0);
      t = NowNs();
      Result<loggrep::QueryResult> r = [&] {
        const Span span(tracer, "core.querybox");
        return cold.QueryBox(
            key, [&]() -> Result<std::string> { return box; }, command);
      }();
      querybox_ms.push_back(Ms(NowNs() - t));
      if (!r.ok()) {
        report->Fail("QueryBox '" + command + "': " + r.status().ToString());
      }
    }
  }

  const double mb = static_cast<double>(raw_bytes) / 1e6;
  const double n = static_cast<double>(std::max<size_t>(1, blocks.size()));
  const auto per_mb = [&](uint64_t ns) { return mb > 0 ? Ms(ns) / mb : 0; };
  report->Layer("parser.parse_ms_per_mb", per_mb(parse_ns), "ms/MB");
  report->Layer("core.compress_ms_per_mb", per_mb(compress_ns), "ms/MB");
  report->Layer("core.querybox_ms", Mean(querybox_ms), "ms");
  report->Layer("capsule.assemble_ms_per_mb",
                per_mb(compress_ns - std::min(compress_ns, parse_ns + encode_ns)),
                "ms/MB");
  report->Layer("capsule.meta_bytes_share",
                box_bytes > 0 ? 1.0 - static_cast<double>(capsule_stored) /
                                          static_cast<double>(box_bytes)
                              : 0,
                "share");
  report->Layer("capsule.box_open_ms", Ms(open_ns) / n, "ms");
  report->Layer("codec.encode_mb_s",
                encode_ns > 0 ? capsule_raw / 1e6 / Seconds(encode_ns) : 0, "MB/s");
  report->Layer("codec.decode_mb_s",
                decode_ns > 0 ? capsule_raw / 1e6 / Seconds(decode_ns) : 0, "MB/s");
  report->Layer("codec.ratio",
                capsule_stored > 0 ? static_cast<double>(capsule_raw) /
                                         static_cast<double>(capsule_stored)
                                   : 0,
                "ratio");
  report->Layer("store.summary_ms_per_mb", per_mb(summary_ns), "ms/MB");
}

namespace {

// Runs `stream` through `service` from one thread; returns per-call ms.
// `tally` (may be null) sums the responses' cache counts.
std::vector<double> RunService(loggrep::ArchiveService& service,
                               const std::vector<const Command*>& stream,
                               Tracer* tracer, Report* report, bool check,
                               loggrep::ServiceQueryStats* tally = nullptr) {
  std::vector<double> ms;
  for (const Command* command : stream) {
    loggrep::ServiceRequest request;
    request.archive = command->archive;
    request.command = command->text;
    const uint64_t t = NowNs();
    loggrep::ServiceResponse response;
    {
      const Span span(tracer, "server.service_run");
      response = service.Run(request);
    }
    ms.push_back(Ms(NowNs() - t));
    if (tally != nullptr) {
      tally->blocks_queried += response.stats.blocks_queried;
      tally->blocks_from_cache += response.stats.blocks_from_cache;
      tally->cache_hits += response.stats.cache_hits;
      tally->cache_misses += response.stats.cache_misses;
    }
    if (check) {
      report->Attempt();
      loggrep::RemoteQueryResult parsed;
      if (response.http_status != 200 ||
          !loggrep::ParseRemoteQueryBody(response.body, &parsed).ok() ||
          parsed.hits != command->expected) {
        report->Fail("ArchiveService::Run answered '" + command->text +
                     "' with HTTP " + std::to_string(response.http_status) +
                     " or wrong hits");
      }
    }
  }
  return ms;
}

}  // namespace

void ProbeServer(const std::string& root,
                 const std::vector<const Command*>& stream, Tracer* tracer,
                 bool report_shares, Report* report) {
  loggrep::ServiceOptions service_options;
  service_options.root = root;

  // One caller, then Nproc() callers, on a warm service. The two
  // one-caller passes give the cache shares: a command's first run can
  // reuse boxes an earlier command opened, its repeats can come from the
  // command cache.
  double service_p50 = 0;
  double concurrent_p50 = 0;
  loggrep::ServiceQueryStats tally;
  {
    loggrep::ArchiveService service(service_options);
    RunService(service, stream, nullptr, report, /*check=*/true, &tally);
    service_p50 =
        Median(RunService(service, stream, tracer, report, false, &tally));
    std::vector<std::vector<double>> per_thread(Nproc());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < per_thread.size(); ++t) {
      threads.emplace_back([&, t] {
        per_thread[t] = RunService(service, stream, tracer, report, false);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    std::vector<double> all;
    for (const auto& v : per_thread) {
      all.insert(all.end(), v.begin(), v.end());
    }
    concurrent_p50 = Median(all);
  }

  // Round trips through an in-process daemon, one client, warm.
  loggrep::DaemonOptions daemon_options;
  daemon_options.service = service_options;
  daemon_options.num_threads = Nproc();
  loggrep::LoggrepDaemon daemon(daemon_options);
  Result<uint16_t> port = daemon.Start();
  std::vector<double> round_trip_ms;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t answered = 0;
  if (!port.ok()) {
    report->Fail("daemon start: " + port.status().ToString());
  } else {
    loggrep::DaemonClient client("127.0.0.1", *port);
    for (int pass = 0; pass < 2; ++pass) {
      for (const Command* command : stream) {
        const uint64_t t = NowNs();
        Result<loggrep::RemoteQueryResult> r = [&] {
          const Span span(tracer, "server.round_trip");
          return client.Query(command->archive, command->text);
        }();
        const double ms = Ms(NowNs() - t);
        report->Attempt();
        if (!r.ok()) {
          report->Fail("daemon round trip: " + r.status().ToString());
          continue;
        }
        ++answered;
        shed += r->http_status == 429;
        degraded += r->http_status == 206;
        if (r->http_status != 200 || r->hits != command->expected) {
          report->Fail("daemon answered '" + command->text + "' with HTTP " +
                       std::to_string(r->http_status) + " or wrong hits");
        }
        if (pass == 1) {
          round_trip_ms.push_back(ms);
        }
      }
    }
    daemon.Shutdown();
  }
  report->Layer("server.service_run_ms", service_p50, "ms");
  report->Layer("server.http_overhead_ms", Median(round_trip_ms) - service_p50, "ms");
  report->Layer("server.service_p50_ratio_concurrent",
                service_p50 > 0 ? concurrent_p50 / service_p50 : 0, "ratio");
  if (report_shares) {
    const double n = static_cast<double>(std::max<uint64_t>(1, answered));
    report->Layer("server.shed_share", static_cast<double>(shed) / n, "share");
    report->Layer("server.degraded_share", static_cast<double>(degraded) / n,
                  "share");
    ReportCacheShares(tally.blocks_from_cache, tally.blocks_queried,
                      tally.cache_hits, tally.cache_misses, report);
  }
}

void FinishTrace(const Tracer& tracer, const Args& args, Report* report) {
  const std::vector<std::pair<std::string, double>> self = tracer.SelfMs();
  double total = 0;
  for (const auto& [name, ms] : self) {
    total += ms;
  }
  for (const auto& [name, ms] : self) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f ms (%.1f%%)", ms,
                  total > 0 ? 100.0 * ms / total : 0.0);
    report->Property("self_time." + name, buf);
  }
  const std::filesystem::path dir =
      std::filesystem::path(args.work_root).parent_path() / "traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      (dir / (args.workload + "-seed" + std::to_string(args.seed) + ".jsonl"))
          .string();
  if (tracer.WriteJsonLines(path)) {
    report->Property("trace.file", path);
  }
  report->Property("trace.spans", std::to_string(tracer.Snapshot().size()));
}

}  // namespace perfbench
