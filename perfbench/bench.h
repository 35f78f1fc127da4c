// Shared pieces of the repository benchmark: arguments, the result report,
// seeded inputs, reference answers, timing statistics and the span tracer.
//
// The benchmark drives the program only through its public classes
// (LogIngestor, LogArchive, LogGrepEngine, CapsuleBox, Codec,
// ArchiveService, LoggrepDaemon, DaemonClient). Every span is recorded here,
// around a call into one of those classes, never inside src/.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/ingest/log_ingestor.h"
#include "src/query/query_cache.h"
#include "src/store/log_archive.h"
#include "src/workload/loggen.h"

namespace perfbench {

using loggrep::QueryHits;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Root of the scratch directory the run may write (inside the checkout).
  std::string work_root;
};

// p99 limit of the closed loops (ingest's read-back, grep_cold): their
// qps_at_slo is the loop's rate when its p99 stays within it. A cold
// one-shot query takes milliseconds, so only a stalled or pathological query
// path reaches a second.
inline constexpr double kClosedLoopSloMs = 1000;

// Metrics and tallies of one run. End-to-end metrics are printed with
// --trace 0 and per-layer metrics with --trace 1.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  // A workload property (printed on both runs, never a metric).
  void Property(const std::string& name, const std::string& value);

  // One checked operation; a wrong or failed answer is recorded with why.
  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

  // Human-readable lines, then the one-line JSON result.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool trace_;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, std::string>> properties_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex fail_mu_;
  std::vector<std::string> fail_samples_;
};

// ---- time and statistics ---------------------------------------------------

uint64_t NowNs();
double Ms(uint64_t ns);
// Nearest-rank percentile (p in [0,1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
// Samples needed so that `p` has at least ten samples beyond it.
size_t SamplesForTail(double p);
// Peak resident set size of this process, MB.
double PeakRssMb();
// Worker threads the benchmark may use (the machine's CPUs).
size_t Nproc();
// Flushes the dirty pages of the filesystem holding `dir` (syncfs).
void SyncFilesystem(const std::string& dir);
// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* items, loggrep::Rng& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.NextBelow(i)]);
  }
}
// Runs fn(i) for i in [0, n) on Nproc() threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

// ---- span tracer -----------------------------------------------------------

// In-memory span recorder. Spans carry name, start, end, parent and the id
// of the request they belong to; they are written out when the run ends.
class Tracer {
 public:
  struct Record {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t request = 0;
    const char* name = "";
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  uint64_t Begin();  // a new span id
  void End(uint64_t id, uint64_t parent, uint64_t request, const char* name,
           uint64_t start_ns);

  std::vector<Record> Snapshot() const;
  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;
  // Per span name: total self time (duration minus the part covered by
  // child spans), ms.
  std::vector<std::pair<std::string, double>> SelfMs() const;

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::atomic<uint64_t> next_id_{1};
};

// RAII span; a no-op when `tracer` is null. Nested spans on one thread take
// the enclosing span as parent and inherit its request id when `request`
// is 0.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  uint64_t start_ns_ = 0;
};

// ---- seeded inputs and reference answers -----------------------------------

// The dataset spec with its generator seed derived from the run seed.
loggrep::DatasetSpec SeededSpec(const loggrep::DatasetSpec& spec,
                                uint64_t seed, uint64_t salt);
// Whole generated lines of `spec`, at most `bytes` in total.
std::string GenerateText(const loggrep::DatasetSpec& spec, size_t bytes);
// Lines of '\n'-terminated text (views without the terminator).
std::vector<std::string_view> SplitLines(std::string_view text);

// One query with the archive it targets and its reference answer.
struct Command {
  std::string archive;  // directory name under the served root
  std::string text;
  QueryHits expected;
  bool sampled = false;  // a keyword sampled from the generated lines
};

// Sampled keyword commands are kept only when they hit at most this many
// lines: a needle grep, not a scan that returns a large part of the data.
inline constexpr size_t kMaxSampledHits = 100;

// Fills every command's `expected` with LineMatchesQuery over `lines_of`
// its archive (line numbers are 0-based positions in that archive), then
// drops the sampled commands that hit more than kMaxSampledHits lines.
// Returns false (and records the failure) when a command does not parse.
bool ComputeReferences(
    std::vector<Command>* commands,
    const std::function<const std::vector<std::string_view>&(
        const std::string&)>& lines_of,
    Report* report);

// Bytes of hit text in an answer.
uint64_t ResultBytes(const QueryHits& hits);

// ---- program calls ---------------------------------------------------------

// Timings of one LogIngestor run, measured from outside.
struct IngestRun {
  double start_s = 0;     // LogIngestor::Start
  double append_s = 0;    // inside Append calls
  double finish_s = 0;    // Finish (drain of the last blocks)
  double stream_s = 0;    // first Append .. Finish returning
  loggrep::IngestMetrics metrics;
  size_t workers = 0;
};

// Streams `text` through one LogIngestor into `dir` in 1 MiB chunks, or,
// when `pace_mb_s` > 0, in 16 KiB chunks appended at that steady rate.
// `workers` = 0 keeps the program's default worker count.
loggrep::Status IngestText(const std::string& dir, std::string_view text,
                           size_t block_bytes, size_t workers,
                           Tracer* tracer, uint64_t request, IngestRun* out,
                           double pace_mb_s = 0);

// Checks an ingested archive against the text it was fed: line count and
// every block's content_hash.
void CheckIngested(const std::string& dir,
                   const std::vector<std::string_view>& lines, Report* report);

// Cold one-shot query (LogArchive::Open then LogArchive::Query, as
// `loggrep_cli archive-grep` runs it), checked against the reference.
struct ColdQueryTotals {
  std::vector<double> total_ms;  // Open + Query, one per sample
  std::vector<double> open_ms;
  std::vector<double> query_ms;
  loggrep::LocatorStats locator;  // summed
  uint64_t blocks_pruned = 0;
  uint64_t blocks_queried = 0;
  uint64_t hits = 0;
  uint64_t result_bytes = 0;
  uint64_t stage_ns = 0;  // LocatorStats stage nanoseconds, all stages
  uint64_t query_wall_ns = 0;
  size_t repeats = 0;  // samples whose command ran earlier in the run
};
void ColdQuery(const std::string& dir, const Command& command, Tracer* tracer,
               uint64_t request, ColdQueryTotals* totals, Report* report);

// Emits the query.* and store.* per-layer metrics of a set of cold
// queries, plus capsules_pruned_share from Explain over `explain_commands`.
// The two cache shares are left to the caller.
void ReportColdQueryLayers(const ColdQueryTotals& totals,
                           const std::string& root,
                           const std::vector<const Command*>& explain_commands,
                           Report* report);

// Emits query.command_cache_hit_share (blocks answered from the command
// cache / blocks queried) and query.box_cache_hit_share.
void ReportCacheShares(uint64_t blocks_from_cache, uint64_t blocks_queried,
                       uint64_t box_hits, uint64_t box_misses, Report* report);

// Emits the ingest.* and store.commit_ms_per_block per-layer metrics.
void ReportIngestLayers(const std::vector<IngestRun>& runs, Report* report);

// One raw block and the commands its cold QueryBox probe runs.
struct ProbeBlock {
  std::string_view text;
  std::vector<std::string> commands;
};

// Parser / core / capsule / codec / store-summary probes over raw blocks,
// each timed from outside around one public call.
void ProbeBlockLayers(const std::vector<ProbeBlock>& blocks, Tracer* tracer,
                      Report* report);

// Raw text of every block of the archive at `dir`, sliced from the lines it
// was fed.
std::vector<std::string_view> BlockTexts(
    const std::string& dir, const std::vector<std::string_view>& lines);

// Workload properties: printed on every run, and reported as load.*
// per-layer metrics on the traced run.
struct WorkloadShape {
  double raw_corpus_mb = 0;
  double blocks_per_archive = 0;
  size_t distinct_commands = 0;
  double repeat_share = 0;
  double max_catalog_result_mb = 0;  // per archive, vs the QueryCache budget
};
void ReportShape(const WorkloadShape& shape, Report* report);

// Server probes over a request stream on `root`: ArchiveService::Run with
// one caller and with Nproc() callers, and DaemonClient round trips to an
// in-process daemon (server.service_run_ms, server.http_overhead_ms,
// server.service_p50_ratio_concurrent). Answers are checked. With
// `report_shares`, also the shares of the request mix: shed and degraded
// responses of the daemon, and the two cache shares over both one-caller
// passes of one ArchiveService, where every command runs at least twice and
// the archives stay open between requests.
void ProbeServer(const std::string& root,
                 const std::vector<const Command*>& stream, Tracer* tracer,
                 bool report_shares, Report* report);

// Emits the per-layer self time table computed from the spans and writes
// the spans next to the run's scratch directory.
void FinishTrace(const Tracer& tracer, const Args& args, Report* report);

// ---- workloads -------------------------------------------------------------

int RunIngest(const Args& args, Report* report);
int RunGrepCold(const Args& args, Report* report);
int RunServeMixed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
