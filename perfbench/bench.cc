#include "perfbench/bench.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <thread>
#include <unordered_set>

#include "src/query/line_match.h"
#include "src/query/query_parser.h"

namespace perfbench {

using loggrep::LogArchive;
using loggrep::Result;
using loggrep::Status;

// ---- report ----------------------------------------------------------------

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, value, unit});
}

void Report::Property(const std::string& name, const std::string& value) {
  properties_.emplace_back(name, value);
}

void Report::Fail(const std::string& why) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(fail_mu_);
  if (fail_samples_.size() < 10) {
    fail_samples_.push_back(why);
  }
}

namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
  out->push_back('"');
}

std::string FormatValue(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

void Report::Print() const {
  for (const auto& [name, value] : properties_) {
    std::printf("# %-40s %s\n", name.c_str(), value.c_str());
  }
  for (const std::string& why : fail_samples_) {
    std::printf("# FAILED: %s\n", why.c_str());
  }
  const std::vector<Metric>& printed = trace_ ? layers_ : end_to_end_;
  for (const Metric& m : trace_ ? end_to_end_ : layers_) {
    std::printf("# (%s) %-36s %14.4f %s\n", trace_ ? "traced" : "untraced",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : printed) {
    std::printf("%-42s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted()));
  json += ", \"failed\": " + std::to_string(failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : printed) {
    if (!first) {
      json += ", ";
    }
    first = false;
    AppendJsonString(&json, m.name);
    json += ": {\"value\": " + FormatValue(m.value) + ", \"unit\": ";
    AppendJsonString(&json, m.unit);
    json += "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- time and statistics ---------------------------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

size_t SamplesForTail(double p) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - p) - 1e-9));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const size_t workers = std::min(Nproc(), std::max<size_t>(1, n));
  for (size_t t = 0; t < workers; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        fn(i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// ---- span tracer -----------------------------------------------------------

namespace {

struct OpenSpan {
  uint64_t id;
  uint64_t request;
};
thread_local std::vector<OpenSpan> t_open_spans;

}  // namespace

uint64_t Tracer::Begin() { return next_id_.fetch_add(1); }

void Tracer::End(uint64_t id, uint64_t parent, uint64_t request,
                 const char* name, uint64_t start_ns) {
  const uint64_t end_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({id, parent, request, name, start_ns, end_ns});
}

std::vector<Tracer::Record> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  for (const Record& r : Snapshot()) {
    out << "{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"request\":" << r.request << ",\"name\":\"" << r.name
        << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<std::pair<std::string, double>> Tracer::SelfMs() const {
  const std::vector<Record> records = Snapshot();
  std::map<uint64_t, std::vector<const Record*>> children;
  for (const Record& r : records) {
    if (r.parent != 0) {
      children[r.parent].push_back(&r);
    }
  }
  std::map<std::string, double> self;
  for (const Record& r : records) {
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    if (auto it = children.find(r.id); it != children.end()) {
      for (const Record* c : it->second) {
        const uint64_t s = std::max(c->start_ns, r.start_ns);
        const uint64_t e = std::min(c->end_ns, r.end_ns);
        if (s < e) {
          spans.emplace_back(s, e);
        }
      }
    }
    std::sort(spans.begin(), spans.end());
    uint64_t covered = 0;
    uint64_t reach = r.start_ns;
    for (const auto& [s, e] : spans) {
      const uint64_t from = std::max(s, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    self[r.name] += Ms(r.end_ns - r.start_ns - covered);
  }
  return {self.begin(), self.end()};
}

Span::Span(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) {
    return;
  }
  if (!t_open_spans.empty()) {
    parent_ = t_open_spans.back().id;
    request_ = request != 0 ? request : t_open_spans.back().request;
  } else {
    request_ = request;
  }
  id_ = tracer_->Begin();
  t_open_spans.push_back({id_, request_});
  start_ns_ = NowNs();
}

Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  t_open_spans.pop_back();
  tracer_->End(id_, parent_, request_, name_, start_ns_);
}

// ---- seeded inputs and reference answers -----------------------------------

loggrep::DatasetSpec SeededSpec(const loggrep::DatasetSpec& spec,
                                uint64_t seed, uint64_t salt) {
  loggrep::DatasetSpec out = spec;
  loggrep::Rng rng(seed * 0x9E3779B97F4A7C15ULL ^ (salt + 1) * 0xD1B54A32D192ED03ULL ^
                   spec.seed);
  out.seed = rng.NextU64();
  return out;
}

std::string GenerateText(const loggrep::DatasetSpec& spec, size_t bytes) {
  std::string text = loggrep::LogGenerator(spec).Generate(bytes);
  if (text.size() > bytes) {
    const size_t cut = text.rfind('\n', bytes - 1);
    text.resize(cut == std::string::npos ? 0 : cut + 1);
  }
  return text;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = text.size();
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

namespace {

// Literal text that every line matching `expr` contains: the literal runs
// of the keywords of terms the query requires (a keyword hits a token that
// contains it, so a matching line contains each literal run of it).
void RequiredLiterals(const loggrep::QueryExpr& expr,
                      std::vector<std::string>* out) {
  switch (expr.kind) {
    case loggrep::QueryExpr::Kind::kTerm:
      for (const std::string& keyword : expr.term.keywords) {
        size_t pos = 0;
        while (pos <= keyword.size()) {
          size_t end = keyword.find_first_of("*?", pos);
          if (end == std::string::npos) {
            end = keyword.size();
          }
          if (end > pos) {
            out->push_back(keyword.substr(pos, end - pos));
          }
          pos = end + 1;
        }
      }
      break;
    case loggrep::QueryExpr::Kind::kAnd:
      RequiredLiterals(*expr.left, out);
      RequiredLiterals(*expr.right, out);
      break;
    case loggrep::QueryExpr::Kind::kNot:  // left AND NOT right
      if (expr.left != nullptr) {
        RequiredLiterals(*expr.left, out);
      }
      break;
    case loggrep::QueryExpr::Kind::kOr:
      break;
  }
}

}  // namespace

bool ComputeReferences(
    std::vector<Command>* commands,
    const std::function<const std::vector<std::string_view>&(
        const std::string&)>& lines_of,
    Report* report) {
  std::atomic<bool> ok{true};
  ParallelFor(commands->size(), [&](size_t i) {
    Command& command = (*commands)[i];
    auto expr = loggrep::ParseQuery(command.text);
    if (!expr.ok()) {
      report->Fail("reference: cannot parse '" + command.text + "'");
      ok = false;
      return;
    }
    loggrep::LineMatcher matcher;
    const std::vector<std::string_view>& lines = lines_of(command.archive);
    command.expected.clear();
    std::vector<std::string> literals;
    RequiredLiterals(**expr, &literals);
    // A sampled command stops collecting once it is known to be too broad.
    const size_t limit = command.sampled ? kMaxSampledHits + 1 : lines.size();
    if (literals.empty() || lines.empty()) {
      for (size_t n = 0; n < lines.size() && command.expected.size() < limit; ++n) {
        if (matcher.MatchesQuery(lines[n], **expr)) {
          command.expected.emplace_back(n, std::string(lines[n]));
        }
      }
      return;
    }
    // Only lines holding the longest required literal can match; find them
    // in the archive's text (its lines are views into one contiguous text)
    // and run LineMatchesQuery on those.
    const std::string& literal = *std::max_element(
        literals.begin(), literals.end(),
        [](const std::string& a, const std::string& b) { return a.size() < b.size(); });
    const char* base = lines.front().data();
    const std::string_view text(
        base, static_cast<size_t>(lines.back().data() + lines.back().size() - base));
    size_t pos = text.find(literal);
    while (pos != std::string_view::npos && command.expected.size() < limit) {
      const auto it = std::upper_bound(
          lines.begin(), lines.end(), base + pos,
          [](const char* p, std::string_view line) { return p < line.data(); });
      const size_t n = static_cast<size_t>(it - lines.begin()) - 1;
      if (matcher.MatchesQuery(lines[n], **expr)) {
        command.expected.emplace_back(n, std::string(lines[n]));
      }
      const size_t next = static_cast<size_t>(lines[n].data() + lines[n].size() - base) + 1;
      pos = next < text.size() ? text.find(literal, next) : std::string_view::npos;
    }
  });
  std::erase_if(*commands, [](const Command& c) {
    return c.sampled && c.expected.size() > kMaxSampledHits;
  });
  return ok;
}

uint64_t ResultBytes(const QueryHits& hits) {
  uint64_t bytes = 0;
  for (const auto& hit : hits) {
    bytes += hit.second.size();
  }
  return bytes;
}

// ---- program calls ---------------------------------------------------------

Status IngestText(const std::string& dir, std::string_view text,
                  size_t block_bytes, size_t workers, Tracer* tracer,
                  uint64_t request, IngestRun* out, double pace_mb_s) {
  loggrep::IngestOptions options;
  options.target_block_bytes = block_bytes;
  options.num_workers = workers;
  *out = IngestRun{};
  out->workers = workers != 0 ? workers : Nproc();

  const uint64_t t0 = NowNs();
  Result<std::unique_ptr<loggrep::LogIngestor>> ingestor = [&] {
    const Span span(tracer, "ingest.start", request);
    return loggrep::LogIngestor::Start(dir, options);
  }();
  const uint64_t t1 = NowNs();
  out->start_s = static_cast<double>(t1 - t0) / 1e9;
  if (!ingestor.ok()) {
    return ingestor.status();
  }
  const size_t chunk = pace_mb_s > 0 ? 16 << 10 : 1 << 20;
  uint64_t append_ns = 0;
  for (size_t off = 0; off < text.size(); off += chunk) {
    if (pace_mb_s > 0) {
      const uint64_t due = t1 + static_cast<uint64_t>(static_cast<double>(off) * 1e3 / pace_mb_s);
      const uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
    }
    const Span span(tracer, "ingest.append", request);
    const uint64_t a = NowNs();
    const Status s = (*ingestor)->Append(text.substr(off, chunk));
    append_ns += NowNs() - a;
    if (!s.ok()) {
      return s;
    }
  }
  const uint64_t f = NowNs();
  {
    const Span span(tracer, "ingest.finish", request);
    if (Status s = (*ingestor)->Finish(); !s.ok()) {
      return s;
    }
  }
  const uint64_t t2 = NowNs();
  out->append_s = static_cast<double>(append_ns) / 1e9;
  out->finish_s = static_cast<double>(t2 - f) / 1e9;
  out->stream_s = static_cast<double>(t2 - t1) / 1e9;
  out->metrics = (*ingestor)->metrics();
  return loggrep::OkStatus();
}

namespace {

// Program-reported LocatorStats stage nanoseconds, summed.
uint64_t StageNanos(const loggrep::LocatorStats& s) {
  return s.prune_nanos + s.open_nanos + s.stamp_filter_nanos +
         s.decompress_nanos + s.scan_nanos + s.reconstruct_nanos;
}

// The raw text of `block`: the lines are views into one contiguous text, so
// it spans from the block's first line to its last line's terminator.
// Empty when the block's line range is not inside `lines`.
std::string_view BlockText(const loggrep::BlockInfo& block,
                           const std::vector<std::string_view>& lines) {
  if (block.line_count == 0 || block.first_line + block.line_count > lines.size()) {
    return {};
  }
  const std::string_view first = lines[block.first_line];
  const std::string_view last = lines[block.first_line + block.line_count - 1];
  return {first.data(), static_cast<size_t>(last.data() + last.size() + 1 - first.data())};
}

}  // namespace

void CheckIngested(const std::string& dir,
                   const std::vector<std::string_view>& lines, Report* report) {
  report->Attempt();
  Result<LogArchive> archive = LogArchive::Open(dir);
  if (!archive.ok()) {
    report->Fail("reopen " + dir + ": " + archive.status().ToString());
    return;
  }
  if (archive->total_lines() != lines.size()) {
    report->Fail("archive " + dir + " holds " +
                 std::to_string(archive->total_lines()) + " lines, fed " +
                 std::to_string(lines.size()));
    return;
  }
  for (const loggrep::BlockInfo& block : archive->blocks()) {
    const std::string_view text = BlockText(block, lines);
    if (text.empty()) {
      report->Fail("block " + std::to_string(block.seq) + " line range out of bounds");
      return;
    }
    if (loggrep::HashBlockContent(text) != block.content_hash) {
      report->Fail("block " + std::to_string(block.seq) + " of " + dir +
                   ": content_hash differs from the ingested text");
      return;
    }
  }
}

void ColdQuery(const std::string& dir, const Command& command, Tracer* tracer,
               uint64_t request, ColdQueryTotals* totals, Report* report) {
  report->Attempt();
  std::optional<Result<LogArchive>> archive;
  std::optional<Result<loggrep::ArchiveQueryResult>> result;
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  uint64_t t2 = 0;
  {
    const Span root(tracer, "request", request);
    t0 = NowNs();
    {
      const Span span(tracer, "store.open");
      archive.emplace(LogArchive::Open(dir));
    }
    t1 = NowNs();
    if (archive->ok()) {
      const Span span(tracer, "store.query");
      result.emplace((*archive)->Query(command.text));
    }
    t2 = NowNs();
  }
  if (!archive->ok()) {
    report->Fail("open " + dir + ": " + archive->status().ToString());
    return;
  }
  if (!result->ok()) {
    report->Fail("query '" + command.text + "': " + result->status().ToString());
    return;
  }
  const loggrep::ArchiveQueryResult& r = **result;
  if (r.partial.partial() || r.hits != command.expected) {
    report->Fail("wrong answer for '" + command.text + "' on " + command.archive +
                 ": " + std::to_string(r.hits.size()) + " hits, expected " +
                 std::to_string(command.expected.size()));
    return;
  }
  totals->total_ms.push_back(Ms(t2 - t0));
  totals->open_ms.push_back(Ms(t1 - t0));
  totals->query_ms.push_back(Ms(t2 - t1));
  totals->locator.Accumulate(r.locator);
  totals->blocks_pruned += r.blocks_pruned;
  totals->blocks_queried += r.blocks_queried;
  totals->hits += r.hits.size();
  totals->result_bytes += ResultBytes(r.hits);
  totals->stage_ns += StageNanos(r.locator);
  totals->query_wall_ns += t2 - t1;
}


namespace {

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace

void ReportColdQueryLayers(const ColdQueryTotals& t, const std::string& root,
                           const std::vector<const Command*>& explain_commands,
                           Report* report) {
  const double n = static_cast<double>(std::max<size_t>(1, t.total_ms.size()));
  const loggrep::LocatorStats& s = t.locator;
  report->Layer("store.open_ms", Median(t.open_ms), "ms");
  report->Layer("store.query_ms", Median(t.query_ms), "ms");
  report->Layer("store.blocks_pruned_share",
                Share(t.blocks_pruned, t.blocks_pruned + t.blocks_queried),
                "share");
  report->Layer("query.bytes_decompressed_per_query",
                s.bytes_decompressed / n, "bytes");
  report->Layer("query.hits_per_query", t.hits / n, "count");
  report->Layer("query.result_bytes_per_query", t.result_bytes / n, "bytes");
  report->Layer("query.stage.open_ms", Ms(s.open_nanos) / n, "ms");
  report->Layer("query.stage.stamp_filter_ms", Ms(s.stamp_filter_nanos) / n, "ms");
  report->Layer("query.stage.decompress_ms", Ms(s.decompress_nanos) / n, "ms");
  report->Layer("query.stage.scan_ms", Ms(s.scan_nanos) / n, "ms");
  report->Layer("query.stage.reconstruct_ms", Ms(s.reconstruct_nanos) / n, "ms");
  report->Layer("query.stage_sum_over_wall",
                Share(static_cast<double>(t.stage_ns),
                      static_cast<double>(t.query_wall_ns)),
                "ratio");

  // Capsule fates from Explain, on freshly opened archives.
  uint64_t visited = 0;
  uint64_t pruned = 0;
  for (const Command* command : explain_commands) {
    report->Attempt();
    Result<LogArchive> archive = LogArchive::Open(root + "/" + command->archive);
    if (!archive.ok()) {
      report->Fail("explain open: " + archive.status().ToString());
      continue;
    }
    loggrep::QueryExplain explain;
    Result<loggrep::ArchiveQueryResult> r = archive->Explain(command->text, &explain);
    if (!r.ok() || r->hits != command->expected || !explain.CheckInvariant()) {
      report->Fail("explain of '" + command->text + "' disagrees with the reference");
      continue;
    }
    const loggrep::ExplainTotals totals = explain.Totals();
    visited += totals.visited;
    pruned += totals.pruned;
  }
  report->Layer("query.capsules_pruned_share", Share(pruned, visited), "share");
}

std::vector<std::string_view> BlockTexts(
    const std::string& dir, const std::vector<std::string_view>& lines) {
  std::vector<std::string_view> texts;
  Result<LogArchive> archive = LogArchive::Open(dir);
  if (archive.ok()) {
    for (const loggrep::BlockInfo& block : archive->blocks()) {
      if (const std::string_view text = BlockText(block, lines); !text.empty()) {
        texts.push_back(text);
      }
    }
  }
  return texts;
}

void ReportShape(const WorkloadShape& shape, Report* report) {
  const double box_mb = 256;    // ArchiveOptions::box_cache_budget_bytes
  const double query_mb = 64;   // QueryCache::kDefaultByteBudget
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.2f MB (BoxCache budget %.0f MiB/archive, QueryCache %.0f MiB/archive)",
                shape.raw_corpus_mb, box_mb, query_mb);
  report->Property("raw_corpus", buf);
  std::snprintf(buf, sizeof(buf), "%.2f", shape.blocks_per_archive);
  report->Property("blocks_per_archive", buf);
  report->Property("distinct_commands", std::to_string(shape.distinct_commands));
  std::snprintf(buf, sizeof(buf), "%.4f", shape.repeat_share);
  report->Property("repeat_share", buf);
  std::snprintf(buf, sizeof(buf), "%.3f MB", shape.max_catalog_result_mb);
  report->Property("max_catalog_result_per_archive", buf);
  report->Layer("load.raw_corpus_mb", shape.raw_corpus_mb, "MB");
  report->Layer("load.box_cache_budget_mb", box_mb, "MiB");
  report->Layer("load.query_cache_budget_mb", query_mb, "MiB");
  report->Layer("load.blocks_per_archive", shape.blocks_per_archive, "count");
  report->Layer("load.distinct_commands", static_cast<double>(shape.distinct_commands), "count");
  report->Layer("load.repeat_share", shape.repeat_share, "share");
}

void ReportCacheShares(uint64_t blocks_from_cache, uint64_t blocks_queried,
                       uint64_t box_hits, uint64_t box_misses, Report* report) {
  report->Layer("query.command_cache_hit_share",
                Share(blocks_from_cache, blocks_queried), "share");
  report->Layer("query.box_cache_hit_share", Share(box_hits, box_hits + box_misses),
                "share");
}

void ReportIngestLayers(const std::vector<IngestRun>& runs, Report* report) {
  double append = 0;
  double stream = 0;
  double busy = 0;
  double capacity = 0;
  double commit = 0;
  double blocks = 0;
  std::vector<double> finish_ms;
  for (const IngestRun& r : runs) {
    append += r.append_s;
    stream += r.stream_s;
    busy += r.metrics.summary_seconds + r.metrics.compress_seconds +
            r.metrics.commit_seconds;
    capacity += r.metrics.wall_seconds * static_cast<double>(r.workers);
    commit += r.metrics.commit_seconds;
    blocks += static_cast<double>(r.metrics.blocks_committed);
    finish_ms.push_back(r.finish_s * 1e3);
  }
  report->Layer("ingest.append_share", Share(append, stream), "share");
  report->Layer("ingest.finish_drain_ms", Median(finish_ms), "ms");
  report->Layer("ingest.worker_busy_share", Share(busy, capacity), "share");
  report->Layer("store.commit_ms_per_block", Share(commit * 1e3, blocks), "ms");
}

}  // namespace perfbench
