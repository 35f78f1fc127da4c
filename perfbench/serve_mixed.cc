// Workload `serve_mixed`: open loop through an in-process loggrepd on
// loopback, with a writer publishing new archives beside the reads.
//
// Nproc() client connections send requests on a fixed schedule at each
// rate of the ladder; latency is timed from when each request was due, so a
// stall shows on every request queued behind it. Requests pick (archive,
// command) pairs by Zipf(1.1) from a seeded catalog of suite queries plus
// keywords sampled from the generated lines: the head repeats (the command
// cache and BoxCache answer it) and the tail is mostly first-seen. One
// LogIngestor (1 worker) publishes a new archive under the served root at a
// fixed pace; its commands join the catalog once it is published, as in
// slo_harness. The HTTP server, admission, the per-handle lock, JSON
// rendering and both caches do the work.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "perfbench/bench.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/parser/tokenizer.h"
#include "src/server/client.h"
#include "src/server/daemon.h"
#include "src/workload/datasets.h"
#include "src/workload/queries.h"
#include "src/workload/slo_harness.h"

namespace perfbench {

namespace {

constexpr size_t kArchiveBytes = 500'000;  // 4 blocks of 128 KiB
constexpr size_t kBlockBytes = 128 << 10;
constexpr size_t kStaticArchives = 12;
constexpr size_t kSampledPerArchive = 150;
constexpr double kZipfS = 1.1;
constexpr double kWarmupSeconds = 1.0;
constexpr double kRungSeconds = 0.5;
constexpr int kSetupRepeats = 3;
// Offered rates (requests/s, all clients together), ascending. On a 4-CPU
// host the daemon saturates between 12k and 24k requests/s, a knee that
// moves with host load; no rate sits there, so qps_at_slo reads the
// highest rate clearly below it, and 48000/s is an overload that the
// backlog test must reject.
constexpr double kLadder[] = {4000, 8000, 48000};
// The rate whose latency is query_p50_ms / query_p99_ms: well below the
// knee, so the figure is the service's latency, not queueing.
constexpr size_t kNominalRung = 0;
// p99 a rate must meet to count toward qps_at_slo: room for the cold
// requests of the Zipf tail and a writer competing for the CPUs, far below
// what a growing queue adds within one rate's run.
constexpr double kOpenLoopSloMs = 50;
// Writer pace, raw MB per second of run time: a new archive every second,
// slow enough that its compression does not starve the readers.
constexpr double kWriterMbS = 0.5;

struct Archive {
  std::string name;
  std::string text;
  std::vector<std::string_view> lines;
  size_t dataset = 0;
};

// Keyword commands drawn from `lines`: one token, or two tokens of the same
// line joined with "and". Tokens that the query syntax would read as an
// operator, a wildcard or a quote are skipped.
std::vector<std::string> SampleCommands(const std::vector<std::string_view>& lines,
                                        loggrep::Rng& rng, size_t n) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (size_t attempt = 0; out.size() < n && attempt < 50 * n; ++attempt) {
    const loggrep::TokenizedLine tl =
        loggrep::TokenizeLine(lines[rng.NextBelow(lines.size())]);
    std::vector<std::string_view> tokens;
    for (const std::string_view t : tl.tokens) {
      std::string lower(t);
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (t.size() >= 4 && t.find_first_of("\"*?") == std::string_view::npos &&
          lower != "and" && lower != "not") {
        tokens.push_back(t);
      }
    }
    if (tokens.empty()) {
      continue;
    }
    std::string command(tokens[rng.NextBelow(tokens.size())]);
    if (tokens.size() > 1 && rng.NextBool(0.3)) {
      command += " and ";
      command += tokens[rng.NextBelow(tokens.size())];
    }
    if (seen.insert(command).second) {
      out.push_back(std::move(command));
    }
  }
  return out;
}

// One request as the client saw it.
struct Sample {
  size_t phase = 0;
  size_t entry = 0;
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  bool ok = false;  // 200 with the reference answer
  int http_status = 0;
  uint64_t blocks_queried = 0;
  uint64_t blocks_from_cache = 0;
  uint64_t box_hits = 0;
  uint64_t box_misses = 0;
};

struct Phase {
  double rate = 0;  // offered requests/s, all clients together
  double seconds = 0;
  bool traced = false;
  uint64_t start_ns = 0;  // set when every client is ready
};

// A warm-up at the nominal rate (untimed; the static archives' first
// touches land here), then the ladder. The traced run replaces the ladder by
// the nominal rate twice, untraced then traced, to measure the tracing
// overhead. `nominal_phase` receives the index of the untraced nominal rate.
std::vector<Phase> MakePhases(const Args& args, size_t* nominal_phase) {
  std::vector<Phase> phases;
  const double nominal = kLadder[kNominalRung];
  const double min_requests = static_cast<double>(SamplesForTail(0.99)) * 1.05;
  phases.push_back({nominal, kWarmupSeconds, false, 0});
  if (args.trace) {
    const double each =
        std::max(min_requests / nominal, (args.seconds - kWarmupSeconds) / 2);
    *nominal_phase = phases.size();
    phases.push_back({nominal, each, false, 0});
    phases.push_back({nominal, each, true, 0});
    return phases;
  }
  // The nominal rate gets half the run, for a steady p99; every other rate
  // gets half a second, and at least enough requests for p99 to have ten
  // samples beyond it.
  for (size_t r = 0; r < std::size(kLadder); ++r) {
    const double rate = kLadder[r];
    double seconds = std::max(kRungSeconds, min_requests / rate);
    if (r == kNominalRung) {
      *nominal_phase = phases.size();
      seconds = std::max(seconds, (args.seconds - kWarmupSeconds) / 2);
    }
    phases.push_back({rate, seconds, false, 0});
  }
  return phases;
}

// p99 of each run of SamplesForTail(0.99) consecutive requests (the last
// window takes the remainder), and the median of those. A short stall of
// the whole host lands in one window and moves its p99 only, so the
// figure describes the steady state; every window still has ten samples
// beyond its p99.
double WindowedP99(const std::vector<double>& in_due_order) {
  const size_t window = SamplesForTail(0.99);
  const size_t windows = std::max<size_t>(1, in_due_order.size() / window);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = in_due_order.begin() + static_cast<long>(w * window);
    const auto end = w + 1 == windows ? in_due_order.end()
                                      : begin + static_cast<long>(window);
    p99s.push_back(Percentile(std::vector<double>(begin, end), 0.99));
  }
  return Median(p99s);
}

// Requests due at or before `t` but not sent by then.
size_t BacklogAt(const std::vector<const Sample*>& samples, uint64_t t) {
  size_t n = 0;
  for (const Sample* s : samples) {
    n += s->due_ns <= t && s->sent_ns > t;
  }
  return n;
}

}  // namespace

int RunServeMixed(const Args& args, Report* report) {
  namespace fs = std::filesystem;
  const auto& datasets = loggrep::AllDatasets();
  const size_t clients = Nproc();

  // ---- inputs: archives, catalog, references (not timed) ----------------
  const double archive_mb = static_cast<double>(kArchiveBytes) / 1e6;
  size_t nominal_phase = 0;
  std::vector<Phase> phases = MakePhases(args, &nominal_phase);
  double load_seconds = 0;
  for (const Phase& p : phases) {
    load_seconds += p.seconds;
  }
  const size_t live_count =
      static_cast<size_t>(std::ceil(load_seconds * kWriterMbS / archive_mb)) + 2;
  std::vector<Archive> archives;
  for (size_t k = 0; k < kStaticArchives; ++k) {
    archives.push_back({std::string("s") + std::to_string(k), "", {}, k * datasets.size() / kStaticArchives});
  }
  std::set<size_t> static_datasets;
  for (const Archive& a : archives) {
    static_datasets.insert(a.dataset);
  }
  std::vector<size_t> live_datasets;
  for (size_t i = 0; i < datasets.size(); ++i) {
    if (static_datasets.count(i) == 0) {
      live_datasets.push_back(i);
    }
  }
  for (size_t k = 0; k < live_count; ++k) {
    archives.push_back({std::string("l") + std::to_string(k), "", {},
                        live_datasets[k % live_datasets.size()]});
  }
  std::map<std::string, const Archive*> by_name;
  loggrep::Rng rng(args.seed ^ 0x5E12BEull);
  // Per archive: its suite commands, then sampled keywords.
  std::vector<Command> candidates;
  for (size_t a = 0; a < archives.size(); ++a) {
    Archive& archive = archives[a];
    archive.text = GenerateText(
        SeededSpec(datasets[archive.dataset], args.seed, 100 + a), kArchiveBytes);
    archive.lines = SplitLines(archive.text);
    by_name[archive.name] = &archive;
    std::set<std::string> seen;
    for (const std::string& t :
         loggrep::QuerySuiteForDataset(datasets[archive.dataset].name)) {
      if (seen.insert(t).second) {
        candidates.push_back({archive.name, t, {}});
      }
    }
    for (std::string& t : SampleCommands(archive.lines, rng, kSampledPerArchive)) {
      if (seen.insert(t).second) {
        candidates.push_back({archive.name, std::move(t), {}, true});
      }
    }
  }
  if (!ComputeReferences(
          &candidates,
          [&](const std::string& a) -> const std::vector<std::string_view>& {
            return by_name.at(a)->lines;
          },
          report)) {
    return 1;
  }

  // Popularity ranks. The head is the static archives' suite commands in a
  // fixed order (the dashboard queries every user repeats), then the static
  // sampled keywords in a seeded order, so the cost of the repeated head
  // does not change with the seed. Each live archive's commands follow, in
  // publication order.
  const auto take = [&](bool sampled, const auto& archive_matches) {
    std::vector<Command> out;
    for (const Command& c : candidates) {
      if (c.sampled == sampled && archive_matches(c.archive)) {
        out.push_back(c);
      }
    }
    if (sampled) {
      Shuffle(&out, rng);
    }
    return out;
  };
  const auto is_static = [](const std::string& name) { return name[0] == 's'; };
  std::vector<Command> catalog = take(false, is_static);
  for (Command& c : take(true, is_static)) {
    catalog.push_back(std::move(c));
  }
  const size_t static_commands = catalog.size();
  std::vector<size_t> live_end;  // catalog prefix published with live archive k
  for (size_t k = 0; k < live_count; ++k) {
    const std::string name = std::string("l") + std::to_string(k);
    const auto is_this = [&](const std::string& archive) { return archive == name; };
    for (bool sampled : {false, true}) {
      for (Command& c : take(sampled, is_this)) {
        catalog.push_back(std::move(c));
      }
    }
    live_end.push_back(catalog.size());
  }
  candidates.clear();

  // ---- set-up (timed, repeated): static archives + daemon start ---------
  const std::string& root = args.work_root;
  std::vector<double> setup_s;
  std::unique_ptr<loggrep::LoggrepDaemon> daemon;
  uint16_t port = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon != nullptr) {
      daemon->Shutdown();
      daemon.reset();
    }
    fs::remove_all(root);
    fs::create_directories(root);
    raw_bytes = 0;
    stored_bytes = 0;
    const uint64_t t0 = NowNs();
    for (size_t a = 0; a < kStaticArchives; ++a) {
      IngestRun run;
      const loggrep::Status s = IngestText(root + "/" + archives[a].name,
                                           archives[a].text, kBlockBytes, 0,
                                           nullptr, 0, &run);
      if (!s.ok()) {
        report->Attempt();
        report->Fail("set-up ingest: " + s.ToString());
        return 1;
      }
      raw_bytes += run.metrics.raw_bytes;
      stored_bytes += run.metrics.stored_bytes;
    }
    loggrep::DaemonOptions options;
    options.service.root = root;
    options.num_threads = clients;
    daemon = std::make_unique<loggrep::LoggrepDaemon>(options);
    loggrep::Result<uint16_t> started = daemon->Start();
    if (!started.ok()) {
      report->Attempt();
      report->Fail("daemon start: " + started.status().ToString());
      return 1;
    }
    port = *started;
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  for (size_t a = 0; a < kStaticArchives; ++a) {
    CheckIngested(root + "/" + archives[a].name, archives[a].lines, report);
  }

  Tracer tracer;
  const loggrep::ZipfPicker zipf(catalog.size(), kZipfS);
  std::atomic<size_t> published{static_commands};
  std::atomic<bool> stop{false};
  std::vector<std::atomic<bool>> touched(archives.size());
  std::mutex first_touch_mu;
  std::vector<double> first_touch_ms;

  // Writer: archives back to back, appended at a steady kWriterMbS so its
  // compression work is spread over the run instead of arriving in bursts.
  std::vector<IngestRun> writes;
  std::string writer_error;
  std::thread writer([&] {
    for (size_t k = 0; k < live_count && !stop.load(); ++k) {
      const Archive& archive = archives[kStaticArchives + k];
      IngestRun run;
      loggrep::Status s;
      {
        Tracer* t = args.trace ? &tracer : nullptr;
        const Span span(t, "writer.archive", 2'000'000 + k);
        s = IngestText(root + "/" + archive.name, archive.text, kBlockBytes, 1, t,
                       2'000'000 + k, &run, kWriterMbS);
      }
      if (!s.ok()) {
        writer_error = s.ToString();
        return;
      }
      published.store(live_end[k], std::memory_order_release);
      if (!stop.load()) {
        writes.push_back(run);  // written under read load
      }
    }
  });

  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<uint64_t> request_seq(clients, 0);
  size_t next_phase = 0;
  std::barrier sync(static_cast<std::ptrdiff_t>(clients), [&]() noexcept {
    if (next_phase < phases.size()) {
      phases[next_phase].start_ns = NowNs() + 1'000'000;
    }
    ++next_phase;
  });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      loggrep::Rng pick(args.seed * 1000003 + c + 1);
      loggrep::DaemonClient client("127.0.0.1", port);
      std::vector<Sample>& samples = per_client[c];
      for (size_t p = 0; p < phases.size(); ++p) {
        sync.arrive_and_wait();
        const Phase& phase = phases[p];
        Tracer* t = phase.traced ? &tracer : nullptr;
        const double interval_ns =
            1e9 * static_cast<double>(clients) / phase.rate;
        const double end_ns = phase.seconds * 1e9;
        for (uint64_t j = 0;; ++j) {
          const double offset = interval_ns * (static_cast<double>(j) +
                                               static_cast<double>(c) /
                                                   static_cast<double>(clients));
          if (offset >= end_ns) {
            break;
          }
          Sample s;
          s.phase = p;
          s.due_ns = phase.start_ns + static_cast<uint64_t>(offset);
          const uint64_t now = NowNs();
          if (now < s.due_ns) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(s.due_ns - now));
          }
          s.entry = zipf.Pick(pick.NextDouble(), published.load(std::memory_order_acquire));
          const Command& command = catalog[s.entry];
          std::optional<loggrep::Result<loggrep::RemoteQueryResult>> result;
          {
            const Span span(t, "request", (c + 1) * 100'000'000 + ++request_seq[c]);
            s.sent_ns = NowNs();
            {
              const Span rt(t, "server.round_trip");
              result.emplace(client.Query(command.archive, command.text));
            }
            s.done_ns = NowNs();
          }
          const loggrep::Result<loggrep::RemoteQueryResult>& r = *result;
          report->Attempt();
          if (!r.ok()) {
            report->Fail("transport: " + r.status().ToString());
            client.Disconnect();
          } else {
            s.http_status = r->http_status;
            s.ok = r->http_status == 200 && r->hits == command.expected;
            if (!s.ok) {
              report->Fail("HTTP " + std::to_string(r->http_status) + " for '" +
                           command.text + "' on " + command.archive +
                           (r->http_status == 200 ? " with wrong hits" : ""));
            }
            s.blocks_queried = r->blocks_queried;
            s.blocks_from_cache = r->blocks_from_cache;
            s.box_hits = r->cache_hits;
            if (args.trace) {
              loggrep::Result<loggrep::JsonValue> doc = loggrep::ParseJson(r->body);
              if (doc.ok()) {
                s.box_misses = doc->Get("stats").Get("cache_misses").AsUint();
              }
            }
          }
          const Archive* archive = by_name.at(command.archive);
          const size_t a = static_cast<size_t>(archive - archives.data());
          if (a >= kStaticArchives && !touched[a].exchange(true)) {
            std::lock_guard<std::mutex> lock(first_touch_mu);
            first_touch_ms.push_back(Ms(s.done_ns - s.due_ns));
          }
          samples.push_back(s);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  stop.store(true);
  writer.join();
  if (!writer_error.empty()) {
    report->Attempt();
    report->Fail("writer: " + writer_error);
  }
  for (size_t k = 0; k < writes.size(); ++k) {
    const Archive& archive = archives[kStaticArchives + k];
    CheckIngested(root + "/" + archive.name, archive.lines, report);
    raw_bytes += writes[k].metrics.raw_bytes;
    stored_bytes += writes[k].metrics.stored_bytes;
  }

  // ---- per-phase results -------------------------------------------------
  std::vector<std::vector<const Sample*>> by_phase(phases.size());
  std::vector<bool> seen_entry(catalog.size(), false);
  size_t timed = 0;
  size_t repeats = 0;
  std::vector<const Sample*> all;
  for (const auto& samples : per_client) {
    for (const Sample& s : samples) {
      all.push_back(&s);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Sample* a, const Sample* b) { return a->due_ns < b->due_ns; });
  for (const Sample* s : all) {
    by_phase[s->phase].push_back(s);
    if (s->phase > 0) {
      ++timed;
      repeats += seen_entry[s->entry];
    }
    seen_entry[s->entry] = true;
  }
  struct PhaseResult {
    double p50 = 0;
    double p99 = 0;
    double late_p99 = 0;
    size_t backlog_mid = 0;
    size_t backlog_end = 0;
    bool meets_slo = false;
  };
  std::vector<PhaseResult> results(phases.size());
  for (size_t p = 0; p < phases.size(); ++p) {
    std::vector<double> latency;
    std::vector<double> late;
    bool all_ok = true;
    for (const Sample* s : by_phase[p]) {
      // A failed or refused request misses any latency limit.
      latency.push_back(s->ok ? Ms(s->done_ns - s->due_ns) : 1e12);
      late.push_back(Ms(s->sent_ns - s->due_ns));
      all_ok = all_ok && s->ok;
    }
    PhaseResult& r = results[p];
    r.p50 = Percentile(latency, 0.5);
    r.p99 = WindowedP99(latency);
    r.late_p99 = Percentile(late, 0.99);
    const uint64_t start = phases[p].start_ns;
    const uint64_t span = static_cast<uint64_t>(phases[p].seconds * 1e9);
    // The backlog grew when it rose at each of the last three quarter marks
    // and ends above one queued request per client: a burst of cold
    // requests raises it once, an offered rate beyond capacity keeps it
    // rising.
    const size_t q2 = BacklogAt(by_phase[p], start + span / 2);
    const size_t q3 = BacklogAt(by_phase[p], start + 3 * span / 4);
    r.backlog_mid = q2;
    r.backlog_end = BacklogAt(by_phase[p], start + span);
    const bool grew = q2 < q3 && q3 < r.backlog_end && r.backlog_end > clients;
    r.meets_slo = all_ok && !grew && r.p99 <= kOpenLoopSloMs &&
                  latency.size() >= SamplesForTail(0.99);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%.0f/s%s: %zu requests, p50 %.3f ms, p99 %.3f ms, late p99 "
                  "%.3f ms, backlog %zu -> %zu%s",
                  phases[p].rate, phases[p].traced ? " traced" : "",
                  latency.size(), r.p50, r.p99, r.late_p99, r.backlog_mid,
                  r.backlog_end, r.meets_slo ? ", meets SLO" : "");
    report->Property(p == 0 ? "phase.warmup" : std::string("phase.") + std::to_string(p), buf);
  }
  double qps_at_slo = 0;
  for (size_t p = 1; p < phases.size(); ++p) {
    if (!phases[p].traced && results[p].meets_slo) {
      qps_at_slo = std::max(qps_at_slo, phases[p].rate);
    }
  }
  // The writer is paced, so its wall time is the pace; its speed under
  // read load is raw MB over the worker's busy time (summary + compress +
  // commit, as IngestMetrics reports them).
  double writer_raw = 0;
  double writer_busy = 0;
  for (const IngestRun& w : writes) {
    writer_raw += static_cast<double>(w.metrics.raw_bytes) / 1e6;
    writer_busy += w.metrics.summary_seconds + w.metrics.compress_seconds +
                   w.metrics.commit_seconds;
  }
  const PhaseResult& nominal_result = results[nominal_phase];
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("ingest_mb_s", writer_busy > 0 ? writer_raw / writer_busy : 0,
                   "MB/s");
  report->EndToEnd("compression_ratio",
                   static_cast<double>(raw_bytes) /
                       static_cast<double>(std::max<uint64_t>(1, stored_bytes)),
                   "ratio");
  report->EndToEnd("query_p50_ms", nominal_result.p50, "ms");
  report->EndToEnd("query_p99_ms", nominal_result.p99, "ms");
  report->EndToEnd("qps_at_slo", qps_at_slo, "1/s");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->Property("clients", std::to_string(clients) + " connections, daemon threads " +
                                  std::to_string(clients));
  report->Property("writer", std::to_string(writes.size()) + " archives published");

  WorkloadShape shape;
  double corpus = 0;
  for (size_t a = 0; a < kStaticArchives + writes.size(); ++a) {
    corpus += static_cast<double>(archives[a].text.size()) / 1e6;
  }
  shape.raw_corpus_mb = corpus;
  shape.blocks_per_archive =
      std::ceil(static_cast<double>(kArchiveBytes) / static_cast<double>(kBlockBytes));
  shape.distinct_commands = catalog.size();
  shape.repeat_share = timed > 0 ? static_cast<double>(repeats) / static_cast<double>(timed) : 0;
  std::map<std::string, uint64_t> result_bytes;
  for (const Command& c : catalog) {
    result_bytes[c.archive] += ResultBytes(c.expected);
  }
  for (const auto& [name, bytes] : result_bytes) {
    shape.max_catalog_result_mb =
        std::max(shape.max_catalog_result_mb, static_cast<double>(bytes) / 1e6);
  }
  ReportShape(shape, report);
  if (!args.trace) {
    daemon->Shutdown();
    return 0;
  }

  // ---- traced run: per-layer metrics -------------------------------------
  report->Layer("trace.overhead_share",
                results[nominal_phase + 1].p50 / nominal_result.p50 - 1, "share");
  report->Layer("load.generator_late_ms_p99", nominal_result.late_p99, "ms");
  report->Layer("load.backlog_end", static_cast<double>(nominal_result.backlog_end),
                "count");
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t blocks_queried = 0;
  uint64_t blocks_from_cache = 0;
  uint64_t box_hits = 0;
  uint64_t box_misses = 0;
  std::map<std::string, size_t> per_archive;
  for (const Sample* s : all) {
    if (s->phase == 0) {
      continue;
    }
    shed += s->http_status == 429;
    degraded += s->http_status == 206;
    blocks_queried += s->blocks_queried;
    blocks_from_cache += s->blocks_from_cache;
    box_hits += s->box_hits;
    box_misses += s->box_misses;
    ++per_archive[catalog[s->entry].archive];
  }
  report->Layer("server.shed_share",
                timed > 0 ? static_cast<double>(shed) / static_cast<double>(timed) : 0,
                "share");
  report->Layer("server.degraded_share",
                timed > 0 ? static_cast<double>(degraded) / static_cast<double>(timed) : 0,
                "share");
  ReportCacheShares(blocks_from_cache, blocks_queried, box_hits, box_misses, report);
  report->Layer("store.first_touch_ms", Median(first_touch_ms), "ms");
  ReportIngestLayers(writes, report);
  daemon->Shutdown();

  // What a first-seen request costs: cold one-shot queries over the most
  // popular static commands.
  ColdQueryTotals cold;
  std::vector<const Command*> cold_commands;
  for (size_t i = 0; i < static_commands && cold_commands.size() < 100; ++i) {
    cold_commands.push_back(&catalog[i]);
    ColdQuery(root + "/" + catalog[i].archive, catalog[i], &tracer, 3'000'000 + i,
              &cold, report);
  }
  ReportColdQueryLayers(cold, root, cold_commands, report);

  std::vector<ProbeBlock> probe;
  for (size_t k = 0; k < 6; ++k) {
    const Archive& archive = archives[k * kStaticArchives / 6];
    const std::vector<std::string_view> blocks =
        BlockTexts(root + "/" + archive.name, archive.lines);
    if (!blocks.empty()) {
      probe.push_back({blocks[k % blocks.size()],
                       loggrep::QuerySuiteForDataset(datasets[archive.dataset].name)});
    }
  }
  ProbeBlockLayers(probe, &tracer, report);

  // The hottest archive's requests, in the order they were sent.
  std::string hottest;
  size_t most = 0;
  for (const auto& [name, n] : per_archive) {
    if (n > most) {
      most = n;
      hottest = name;
    }
  }
  std::vector<const Command*> stream;
  for (const Sample* s : all) {
    if (s->phase > 0 && catalog[s->entry].archive == hottest && stream.size() < 300) {
      stream.push_back(&catalog[s->entry]);
    }
  }
  ProbeServer(root, stream, &tracer, /*report_shares=*/false, report);
  FinishTrace(tracer, args, report);
  return 0;
}

}  // namespace perfbench
