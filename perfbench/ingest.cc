// Workload `ingest`: write-only, closed loop, one producer.
//
// One seeded stream of all 37 dataset generators, concatenated, each log
// type contributing one whole block (so nearly every block holds one type,
// as in the paper), goes through one LogIngestor with the program's default
// worker count at the block size `loggrep_cli ingest 1` sets. Parser,
// pattern extraction, capsule assembly, codec encode and store commit do the
// work; no query code runs while a pass is timed. Between passes the archive
// just written is read back with cold one-shot queries, so ratio, speed and
// read cost of the same stream are reported together; the last archive is
// also reopened and checked (line count, every block's content_hash).
#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>

#include "perfbench/bench.h"
#include "src/common/rng.h"
#include "src/workload/datasets.h"
#include "src/workload/queries.h"

namespace perfbench {

using loggrep::Result;

namespace {

constexpr size_t kBlockMb = 1;  // `loggrep_cli ingest <dir> <input> 1`
constexpr size_t kBlockBytes = kBlockMb << 20;
constexpr size_t kSetupSamples = 15;

}  // namespace

int RunIngest(const Args& args, Report* report) {
  namespace fs = std::filesystem;
  const auto& datasets = loggrep::AllDatasets();
  std::string stream;
  for (size_t i = 0; i < datasets.size(); ++i) {
    stream += GenerateText(SeededSpec(datasets[i], args.seed, i), kBlockBytes);
  }
  const std::vector<std::string_view> lines = SplitLines(stream);
  const size_t workers = Nproc();  // IngestOptions::num_workers = 0

  // Read-back commands, over the whole stream: the distinct texts of every
  // dataset's query suite.
  std::vector<Command> commands;
  std::set<std::string> seen;
  for (const auto& spec : datasets) {
    for (std::string& text : loggrep::QuerySuiteForDataset(spec.name)) {
      if (seen.insert(text).second) {
        commands.push_back({"", std::move(text), {}});
      }
    }
  }
  if (!ComputeReferences(
          &commands,
          [&](const std::string&) -> const std::vector<std::string_view>& {
            return lines;
          },
          report)) {
    return 1;
  }

  // The run alternates three steps until each has enough samples, so that
  // every figure is spread over the whole run rather than over one stretch
  // of it (the host's speed drifts over tens of seconds):
  //  - set-up: LogIngestor::Start (archive creation, worker pool) on an
  //    empty stream. It takes under a millisecond, so it is sampled, and
  //    each sample first flushes what is pending for the disk (the archive's
  //    manifest is fsync'ed, and a queue of dirty pages would time the disk
  //    instead of the program);
  //  - one ingest pass of the whole stream. The traced run measures the
  //    first half of the window untraced (three passes at least), the rest
  //    traced;
  //  - read-back: one shuffled cycle of cold one-shot queries on the archive
  //    just written, after the pass's writes are flushed. Untraced, the run
  //    goes on until p99 has ten samples beyond it.
  Tracer tracer;
  std::vector<double> start_s;
  std::vector<IngestRun> untraced;
  std::vector<IngestRun> traced;
  ColdQueryTotals reads;
  loggrep::Rng rng(args.seed ^ 0x5EEDBACCull);
  std::vector<size_t> order(commands.size());
  const size_t needed_reads = args.trace ? 1 : SamplesForTail(0.99);
  std::string last_dir;
  const uint64_t begin = NowNs();
  const double half = args.seconds / 2;
  for (uint64_t pass = 0;; ++pass) {
    const double elapsed = static_cast<double>(NowNs() - begin) / 1e9;
    if (elapsed >= args.seconds && untraced.size() >= 3 &&
        (!args.trace || traced.size() >= 3) && start_s.size() >= kSetupSamples &&
        reads.total_ms.size() >= needed_reads) {
      break;
    }
    if (elapsed >= 3 * args.seconds) {
      report->Property("warning", "sample target not reached in time");
      break;
    }
    if (!last_dir.empty()) {
      fs::remove_all(last_dir);
    }

    SyncFilesystem(args.work_root);
    const std::string setup_dir = args.work_root + "/setup";
    const uint64_t t0 = NowNs();
    Result<std::unique_ptr<loggrep::LogIngestor>> ingestor =
        loggrep::LogIngestor::Start(setup_dir, {});
    start_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    report->Attempt();
    if (!ingestor.ok() || !(*ingestor)->Finish().ok()) {
      report->Fail("LogIngestor::Start on an empty stream failed");
      return 1;
    }
    ingestor->reset();
    fs::remove_all(setup_dir);

    const bool trace_this = args.trace && elapsed >= half && untraced.size() >= 3;
    last_dir = args.work_root + "/pass-" + std::to_string(pass);
    IngestRun run;
    loggrep::Status s;
    {
      Tracer* t = trace_this ? &tracer : nullptr;
      const Span root(t, "ingest.pass", pass + 1);
      s = IngestText(last_dir, stream, kBlockBytes, 0, t, pass + 1, &run);
    }
    report->Attempt();
    if (!s.ok()) {
      report->Fail("ingest pass: " + s.ToString());
      return 1;
    }
    (trace_this ? traced : untraced).push_back(run);

    SyncFilesystem(args.work_root);
    const std::string archive_name = fs::path(last_dir).filename().string();
    for (Command& c : commands) {
      c.archive = archive_name;
    }
    std::iota(order.begin(), order.end(), 0);
    Shuffle(&order, rng);
    for (const size_t i : order) {
      ColdQuery(last_dir, commands[i], args.trace ? &tracer : nullptr,
                1'000'000 + reads.total_ms.size(), &reads, report);
      reads.repeats += pass > 0;
    }
  }

  CheckIngested(last_dir, lines, report);

  const std::vector<IngestRun>& main = untraced;
  std::vector<double> mb_s;
  std::vector<double> ratio;
  for (const IngestRun& r : main) {
    mb_s.push_back(static_cast<double>(stream.size()) / 1e6 / r.stream_s);
    ratio.push_back(static_cast<double>(r.metrics.raw_bytes) /
                    static_cast<double>(std::max<uint64_t>(1, r.metrics.stored_bytes)));
  }
  const double p99 = Percentile(reads.total_ms, 0.99);
  const double closed_qps = reads.total_ms.empty()
                                ? 0
                                : 1e3 / Mean(reads.total_ms);
  report->EndToEnd("setup_s", Median(start_s), "s");
  report->EndToEnd("ingest_mb_s", Median(mb_s), "MB/s");
  report->EndToEnd("compression_ratio", Median(ratio), "ratio");
  report->EndToEnd("query_p50_ms", Median(reads.total_ms), "ms");
  report->EndToEnd("query_p99_ms", p99, "ms");
  report->EndToEnd("qps_at_slo", p99 <= kClosedLoopSloMs ? closed_qps : 0,
                   "1/s");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  const double blocks =
      main.empty() ? 0 : static_cast<double>(main.back().metrics.blocks_committed);
  report->Property("passes", std::to_string(main.size()) + " untraced, " +
                                 std::to_string(traced.size()) + " traced");
  report->Property("workers", std::to_string(workers) + " (blocks per pass " +
                                  std::to_string(static_cast<int>(blocks)) + ")");
  report->Property("read_back_samples", std::to_string(reads.total_ms.size()));
  WorkloadShape shape;
  shape.raw_corpus_mb = static_cast<double>(stream.size()) / 1e6;
  shape.blocks_per_archive = blocks;
  shape.distinct_commands = commands.size();
  shape.repeat_share = reads.total_ms.empty()
                           ? 0
                           : static_cast<double>(reads.repeats) /
                                 static_cast<double>(reads.total_ms.size());
  uint64_t result_bytes = 0;
  for (const Command& c : commands) {
    result_bytes += ResultBytes(c.expected);
  }
  shape.max_catalog_result_mb = static_cast<double>(result_bytes) / 1e6;

  ReportShape(shape, report);
  if (!args.trace) {
    return 0;
  }
  ReportIngestLayers(traced, report);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  for (const IngestRun& r : untraced) {
    untraced_s.push_back(r.stream_s + r.start_s);
  }
  for (const IngestRun& r : traced) {
    traced_s.push_back(r.stream_s + r.start_s);
  }
  report->Layer("trace.overhead_share", Median(traced_s) / Median(untraced_s) - 1,
                "share");

  // Layer probes on this stream's blocks: six spread over the archive, each
  // with the suite of the log type it mostly holds.
  const std::vector<std::string_view> block_texts = BlockTexts(last_dir, lines);
  std::vector<ProbeBlock> probe;
  for (size_t k = 0; k < 6 && !block_texts.empty(); ++k) {
    const size_t b = k * block_texts.size() / 6;
    probe.push_back({block_texts[b], loggrep::QuerySuiteForDataset(
                                         datasets[b % datasets.size()].name)});
  }
  ProbeBlockLayers(probe, &tracer, report);

  std::vector<const Command*> all;
  for (const Command& c : commands) {
    all.push_back(&c);
  }
  ReportColdQueryLayers(reads, args.work_root, all, report);
  report->Layer("store.first_touch_ms",
                reads.total_ms.empty() ? 0 : reads.total_ms.front(), "ms");
  ProbeServer(args.work_root, all, &tracer, /*report_shares=*/true, report);
  // Closed loop: no schedule to fall behind.
  report->Layer("load.generator_late_ms_p99", 0, "ms");
  report->Layer("load.backlog_end", 0, "count");
  FinishTrace(tracer, args, report);
  return 0;
}

}  // namespace perfbench
