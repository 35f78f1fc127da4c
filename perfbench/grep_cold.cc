// Workload `grep_cold`: read-only, closed loop, one client, one-shot queries.
//
// Set-up builds multi-block archives of every log type (3 per type, 4
// blocks each). Each sample runs LogArchive::Open then LogArchive::Query — what
// `loggrep_cli archive-grep` runs — so the program's caches start empty for
// every query, as for the paper's rarely queried logs: store open/prune,
// capsule open, stamp filter, codec decode, scan and reconstruct do the
// work, while the server and both caches are bypassed. The run cycles
// through every dataset's QuerySuiteForDataset commands until p99 has at
// least ten samples beyond it.
#include <algorithm>
#include <filesystem>
#include <numeric>
#include <map>

#include "perfbench/bench.h"
#include "src/common/rng.h"
#include "src/workload/datasets.h"
#include "src/workload/queries.h"

namespace perfbench {

namespace {

// Three archives per log type, so the command mix is dense enough that its
// median does not hinge on whether one command's value happens to occur in
// one seed's data.
constexpr size_t kArchivesPerType = 3;
constexpr size_t kArchiveBytes = 400'000;
constexpr size_t kBlockBytes = 100 << 10;  // 4 blocks per archive
constexpr size_t kSetupRepeats = 5;
// One ingest worker per build: with the program's default (one per CPU)
// the workers share the CPUs with the producer and the committer, and the
// build speed read from their busy time followed the host's load (it
// halved between runs minutes apart) rather than the compression work.
constexpr size_t kBuildWorkers = 1;

}  // namespace

int RunGrepCold(const Args& args, Report* report) {
  namespace fs = std::filesystem;
  const auto& datasets = loggrep::AllDatasets();
  std::vector<std::string> texts;
  std::map<std::string, std::vector<std::string_view>> lines;
  std::vector<Command> commands;
  uint64_t raw_bytes = 0;
  const auto dataset_of = [&](size_t archive) -> const loggrep::DatasetSpec& {
    return datasets[archive / kArchivesPerType];
  };
  for (size_t i = 0; i < datasets.size() * kArchivesPerType; ++i) {
    texts.push_back(GenerateText(SeededSpec(dataset_of(i), args.seed, i), kArchiveBytes));
    raw_bytes += texts.back().size();
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    const std::string name = std::string("t") + std::to_string(i);
    lines[name] = SplitLines(texts[i]);
    // The suite as it is, a repeated command included (it weights the
    // broad query of datasets whose Table 1 command is a single term),
    // except that the miss query, which only exercises block pruning, runs
    // on one archive per log type. Otherwise pruned misses would make up
    // about half the mix and the median would sit on the edge between them
    // and the queries that open blocks.
    const std::vector<std::string> suite = loggrep::QuerySuiteForDataset(dataset_of(i).name);
    for (size_t k = 0; k < suite.size(); ++k) {
      if (k + 1 < suite.size() || i % kArchivesPerType == 0) {
        commands.push_back({name, suite[k], {}});
      }
    }
  }
  if (!ComputeReferences(
          &commands,
          [&](const std::string& a) -> const std::vector<std::string_view>& {
            return lines.at(a);
          },
          report)) {
    return 1;
  }

  // Set-up: build every archive through LogIngestor, under `root`. It is
  // repeated, once before timing (the archives the queries read) and then
  // between query cycles (into a directory no query reads), so that
  // setup_s and the build speed are spread over the whole run rather than
  // over one stretch of it: the host's speed drifts over tens of seconds.
  Tracer tracer;
  Tracer* setup_tracer = args.trace ? &tracer : nullptr;
  std::vector<double> setup_s;
  std::vector<double> build_mb_s;
  std::vector<IngestRun> builds;
  uint64_t stored_bytes = 0;
  const auto build = [&](const std::string& root) {
    fs::remove_all(root);
    fs::create_directories(root);
    double busy_s = 0;
    stored_bytes = 0;
    const uint64_t rep = setup_s.size() + 1;
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < texts.size(); ++i) {
      IngestRun run;
      const loggrep::Status s =
          IngestText(root + "/t" + std::to_string(i), texts[i], kBlockBytes,
                     kBuildWorkers, setup_tracer, rep, &run);
      if (!s.ok()) {
        report->Attempt();
        report->Fail("set-up ingest: " + s.ToString());
        return false;
      }
      busy_s += run.metrics.summary_seconds + run.metrics.compress_seconds;
      stored_bytes += run.metrics.stored_bytes;
      builds.push_back(run);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    // Small archives make the build's wall time mostly commit fsyncs, so
    // its speed is taken over the workers' summary + compress time.
    build_mb_s.push_back(static_cast<double>(raw_bytes) / 1e6 / busy_s);
    return true;
  };
  if (!build(args.work_root)) {
    return 1;
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    const std::string name = std::string("t") + std::to_string(i);
    CheckIngested(args.work_root + "/" + name, lines[name], report);
  }

  // Timed: one-shot queries in seeded shuffled cycles. Each build's writes
  // reach the disk before queries run (their write-back would time the
  // disk).
  SyncFilesystem(args.work_root);
  loggrep::Rng rng(args.seed ^ 0xC01DC0DEull);
  std::vector<size_t> order(commands.size());
  ColdQueryTotals untraced;
  ColdQueryTotals traced;
  const size_t min_samples = SamplesForTail(0.99);
  const uint64_t begin = NowNs();
  const double half = args.seconds / 2;
  uint64_t request = 0;
  for (size_t cycle = 0;; ++cycle) {
    const double elapsed = static_cast<double>(NowNs() - begin) / 1e9;
    // The traced run needs no p99, so half the samples in each half do.
    const size_t needed = args.trace ? min_samples / 2 : min_samples;
    if (elapsed >= args.seconds && untraced.total_ms.size() >= needed &&
        (!args.trace || traced.total_ms.size() >= needed) &&
        setup_s.size() >= kSetupRepeats) {
      break;
    }
    if (elapsed >= 3 * args.seconds) {
      report->Property("warning", "sample target not reached in time");
      break;
    }
    if (setup_s.size() < kSetupRepeats &&
        elapsed >= args.seconds * static_cast<double>(setup_s.size()) / kSetupRepeats) {
      if (!build(args.work_root + "/rebuild")) {
        return 1;
      }
      fs::remove_all(args.work_root + "/rebuild");
      SyncFilesystem(args.work_root);
    }
    std::iota(order.begin(), order.end(), 0);
    Shuffle(&order, rng);
    // The traced run spends the first half untraced, the rest traced.
    const bool trace_this =
        args.trace && elapsed >= half && untraced.total_ms.size() >= needed;
    ColdQueryTotals& totals = trace_this ? traced : untraced;
    for (const size_t i : order) {
      const Command& c = commands[i];
      ColdQuery(args.work_root + "/" + c.archive, c, trace_this ? &tracer : nullptr,
                ++request, &totals, report);
      totals.repeats += cycle > 0;
    }
  }

  const ColdQueryTotals& main = untraced;
  const double p99 = Percentile(main.total_ms, 0.99);
  double total_ms = 0;
  for (const double ms : main.total_ms) {
    total_ms += ms;
  }
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("ingest_mb_s", Median(build_mb_s), "MB/s");
  report->EndToEnd("compression_ratio",
                   static_cast<double>(raw_bytes) /
                       static_cast<double>(std::max<uint64_t>(1, stored_bytes)),
                   "ratio");
  report->EndToEnd("query_p50_ms", Median(main.total_ms), "ms");
  report->EndToEnd("query_p99_ms", p99, "ms");
  report->EndToEnd("qps_at_slo",
                   p99 <= kClosedLoopSloMs && total_ms > 0
                       ? 1e3 * static_cast<double>(main.total_ms.size()) / total_ms
                       : 0,
                   "1/s");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->Property("query_samples", std::to_string(main.total_ms.size()) +
                                        " untraced, " +
                                        std::to_string(traced.total_ms.size()) +
                                        " traced");

  WorkloadShape shape;
  shape.raw_corpus_mb = static_cast<double>(raw_bytes) / 1e6;
  shape.blocks_per_archive = builds.empty()
                                 ? 0
                                 : static_cast<double>(
                                       builds.back().metrics.blocks_committed);
  shape.distinct_commands = commands.size();
  shape.repeat_share = main.total_ms.empty()
                           ? 0
                           : static_cast<double>(main.repeats) /
                                 static_cast<double>(main.total_ms.size());
  std::map<std::string, uint64_t> result_bytes;
  for (const Command& c : commands) {
    result_bytes[c.archive] += ResultBytes(c.expected);
  }
  for (const auto& [name, bytes] : result_bytes) {
    shape.max_catalog_result_mb =
        std::max(shape.max_catalog_result_mb, static_cast<double>(bytes) / 1e6);
  }
  ReportShape(shape, report);
  if (!args.trace) {
    return 0;
  }

  std::vector<IngestRun> last_builds(builds.end() - static_cast<long>(texts.size()),
                                     builds.end());
  ReportIngestLayers(last_builds, report);
  report->Layer("trace.overhead_share",
                Mean(traced.total_ms) / Mean(untraced.total_ms) - 1, "share");

  // Layer probes: one block from each of six log types spread over the
  // catalog, with that type's suite.
  std::vector<ProbeBlock> probe;
  for (size_t k = 0; k < 6; ++k) {
    const size_t i = k * texts.size() / 6;
    const std::string name = std::string("t") + std::to_string(i);
    const std::vector<std::string_view> blocks =
        BlockTexts(args.work_root + "/" + name, lines[name]);
    if (!blocks.empty()) {
      probe.push_back({blocks[k % blocks.size()],
                       loggrep::QuerySuiteForDataset(dataset_of(i).name)});
    }
  }
  ProbeBlockLayers(probe, &tracer, report);

  std::vector<const Command*> all;
  std::vector<const Command*> first_archive;
  for (const Command& c : commands) {
    all.push_back(&c);
    if (c.archive == commands.front().archive) {
      first_archive.push_back(&c);
    }
  }
  ReportColdQueryLayers(traced, args.work_root, all, report);
  // Every sample opens its archive afresh, so each one is a first touch.
  report->Layer("store.first_touch_ms", Median(traced.total_ms), "ms");
  std::vector<const Command*> stream;
  for (int r = 0; r < 20; ++r) {
    stream.insert(stream.end(), first_archive.begin(), first_archive.end());
  }
  ProbeServer(args.work_root, stream, &tracer, /*report_shares=*/true, report);
  report->Layer("load.generator_late_ms_p99", 0, "ms");
  report->Layer("load.backlog_end", 0, "count");
  FinishTrace(tracer, args, report);
  return 0;
}

}  // namespace perfbench
