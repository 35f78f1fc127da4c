#include "src/store/log_archive.h"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <set>
#include <unordered_set>

#include "src/common/hash.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/parser/template_miner.h"  // SplitLines
#include "src/parser/tokenizer.h"
#include "src/query/query_parser.h"
#include "src/query/wildcard.h"
#include "src/store/fs_util.h"

namespace loggrep {
namespace {

constexpr uint32_t kManifestMagic = 0x4D41474Cu;  // "LGAM"
// v2 adds a version byte plus per-block content / stored-bytes checksums
// (the v1 layout had no version byte at all, so v1 manifests now read as
// corrupt; archives are regenerated from raw logs in that case).
constexpr uint8_t kManifestVersion = 2;
constexpr size_t kShingleLen = 4;
// Line counts / line numbers beyond this are not plausible (they would need
// more than an exabyte of raw log) and would overflow the monotonicity
// arithmetic below; reject them during manifest parsing.
constexpr uint64_t kMaxPlausibleLines = 1ull << 62;

// Engine options for the archive's engine: wire in the archive's cache (the
// engine must not own a second one). Without one the engine keeps a private
// cache for results only, so repeated commands are still answered warm.
EngineOptions ArchiveEngineOptions(EngineOptions base, BoxCache* cache) {
  base.box_cache = cache;
  base.use_box_cache = cache != nullptr;
  return base;
}

void AddTokenShingles(const std::string_view token, BloomFilter& bloom) {
  if (token.size() < kShingleLen) {
    return;  // short content is covered by the stamp check instead
  }
  for (size_t i = 0; i + kShingleLen <= token.size(); ++i) {
    bloom.Add(token.substr(i, kShingleLen));
  }
}

// Sound block-level admission test for one literal keyword. When `reason`
// is non-null and the block is rejected, it receives which filter fired
// (for archive-level explain records).
bool BlockMayContainKeyword(const BlockInfo& block, std::string_view keyword,
                            std::string* reason = nullptr) {
  if (HasWildcards(keyword)) {
    if (!StampAdmitsKeyword(block.token_stamp, keyword)) {
      if (reason != nullptr) {
        *reason = "keyword \"" + std::string(keyword) + "\" fails block stamp";
      }
      return false;
    }
    return true;
  }
  if (!block.token_stamp.AdmitsFragment(keyword)) {
    if (reason != nullptr) {
      *reason = "keyword \"" + std::string(keyword) + "\" fails block stamp";
    }
    return false;
  }
  if (keyword.size() < kShingleLen || block.shingles.empty()) {
    return true;
  }
  for (size_t i = 0; i + kShingleLen <= keyword.size(); ++i) {
    if (!block.shingles.MayContain(keyword.substr(i, kShingleLen))) {
      if (reason != nullptr) {
        *reason = "keyword \"" + std::string(keyword) +
                  "\" shingle \"" + std::string(keyword.substr(i, kShingleLen)) +
                  "\" absent from block shingle filter";
      }
      return false;
    }
  }
  return true;
}

void CollectRequired(const QueryExpr& expr, std::vector<std::string>* out) {
  switch (expr.kind) {
    case QueryExpr::Kind::kTerm:
      out->insert(out->end(), expr.term.keywords.begin(),
                  expr.term.keywords.end());
      return;
    case QueryExpr::Kind::kAnd: {
      CollectRequired(*expr.left, out);
      CollectRequired(*expr.right, out);
      return;
    }
    case QueryExpr::Kind::kOr: {
      // A keyword is required only when both branches require it.
      std::vector<std::string> l;
      std::vector<std::string> r;
      CollectRequired(*expr.left, &l);
      CollectRequired(*expr.right, &r);
      const std::set<std::string> rset(r.begin(), r.end());
      for (std::string& kw : l) {
        if (rset.count(kw) > 0) {
          out->push_back(std::move(kw));
        }
      }
      return;
    }
    case QueryExpr::Kind::kNot:
      // Only the positive side constrains matching entries.
      if (expr.left != nullptr) {
        CollectRequired(*expr.left, out);
      }
      return;
  }
}

}  // namespace

std::vector<std::string> RequiredKeywords(const QueryExpr& expr) {
  std::vector<std::string> out;
  CollectRequired(expr, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const char* CommitKillPointName(CommitKillPoint point) {
  switch (point) {
    case CommitKillPoint::kBlockTmpWritten:
      return "block-tmp-written";
    case CommitKillPoint::kBlockRenamed:
      return "block-renamed";
    case CommitKillPoint::kManifestTmpWritten:
      return "manifest-tmp-written";
  }
  return "unknown";
}

uint64_t HashBlockContent(std::string_view text) {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  for (std::string_view line : SplitLines(text)) {
    h = Fnv1a64(line, h);
    h = Fnv1a64("\n", h);
  }
  return h;
}

BlockInfo BuildBlockSummary(std::string_view text,
                            uint32_t bloom_bits_per_shingle) {
  BlockInfo block;
  block.raw_bytes = text.size();
  // Block-level summary: token stamp + shingle Bloom filter. The filter is
  // built for one shingle per 4 raw bytes, then folded down to
  // `bloom_bits_per_shingle` bits per distinct shingle (log tokens repeat,
  // so a block usually holds far fewer distinct shingles than that). This
  // is the usual bound, not a hard one: a block of high-entropy tokens can
  // exceed it, and its filter then stays at the build size, fuller than
  // `bloom_bits_per_shingle` asks.
  block.shingles = BloomFilter(std::max<uint64_t>(1024, text.size() / 4),
                               bloom_bits_per_shingle);
  uint64_t h = 0xCBF29CE484222325ULL;
  for (std::string_view line : SplitLines(text)) {
    ++block.line_count;
    h = Fnv1a64(line, h);
    h = Fnv1a64("\n", h);
    for (std::string_view token : TokenizeKeywords(line)) {
      block.token_stamp.Absorb(token);
      AddTokenShingles(token, block.shingles);
    }
  }
  block.content_hash = h;
  block.shingles.FoldToFit(bloom_bits_per_shingle);
  return block;
}

LogArchive::LogArchive(std::string dir, ArchiveOptions options)
    : dir_(std::move(dir)),
      options_(options),
      cache_namespace_(BoxKey::NextNamespaceId()),
      box_cache_(options.box_cache_budget_bytes > 0
                     ? std::make_shared<BoxCache>(BoxCacheOptions{
                           options.box_cache_budget_bytes, /*shards=*/8,
                           options.metrics})
                     : nullptr),
      engine_(ArchiveEngineOptions(options_.engine, box_cache_.get())) {}

BoxKey LogArchive::KeyForBlock(uint32_t seq) const {
  return BoxKey::ForSequence(cache_namespace_, seq);
}

std::string LogArchive::BlockFileName(uint32_t seq) {
  return "block-" + std::to_string(seq) + ".lgc";
}

std::string LogArchive::BlockPath(uint32_t seq) const {
  return dir_ + "/" + BlockFileName(seq);
}

std::string LogArchive::ManifestPath() const { return dir_ + "/archive.manifest"; }

Result<LogArchive> LogArchive::Create(std::string dir, ArchiveOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Internal("archive: cannot create directory " + dir);
  }
  LogArchive archive(std::move(dir), options);
  if (archive.storage_env()->FileExists(archive.ManifestPath())) {
    return InvalidArgument("archive: manifest already exists; use Open");
  }
  LOGGREP_RETURN_IF_ERROR(archive.WriteManifest());
  return archive;
}

Result<std::vector<BlockInfo>> ParseManifestBytes(std::string_view bytes) {
  ByteReader in(bytes);
  Result<uint32_t> magic = in.ReadU32();
  if (!magic.ok()) {
    return magic.status();
  }
  if (*magic != kManifestMagic) {
    return CorruptData("archive: bad manifest magic");
  }
  Result<uint8_t> version = in.ReadU8();
  if (!version.ok()) {
    return version.status();
  }
  if (*version != kManifestVersion) {
    return CorruptData("archive: unsupported manifest version");
  }
  Result<uint64_t> count = in.ReadVarint();
  if (!count.ok()) {
    return count.status();
  }
  // Every block entry costs well over one stream byte; a declared count
  // beyond the remaining bytes is hostile, reject before any allocation.
  if (*count > in.remaining()) {
    return CorruptData("archive: block count exceeds manifest size");
  }
  std::vector<BlockInfo> blocks;
  blocks.reserve(static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    BlockInfo block;
    Result<uint64_t> v = in.ReadVarint();
    if (!v.ok()) {
      return v.status();
    }
    if (*v > UINT32_MAX) {
      return CorruptData("archive: block seq out of range");
    }
    block.seq = static_cast<uint32_t>(*v);
    for (uint64_t* field : {&block.first_line, &block.line_count,
                            &block.raw_bytes, &block.stored_bytes}) {
      Result<uint64_t> value = in.ReadVarint();
      if (!value.ok()) {
        return value.status();
      }
      *field = *value;
    }
    for (uint64_t* hash : {&block.content_hash, &block.stored_hash}) {
      Result<uint64_t> value = in.ReadU64();
      if (!value.ok()) {
        return value.status();
      }
      *hash = *value;
    }
    Result<CapsuleStamp> stamp = CapsuleStamp::ReadFrom(in);
    if (!stamp.ok()) {
      return stamp.status();
    }
    block.token_stamp = *stamp;
    Result<BloomFilter> bloom = BloomFilter::ReadFrom(in);
    if (!bloom.ok()) {
      return bloom.status();
    }
    block.shingles = std::move(*bloom);
    // Structural coherence: seq strictly increasing, line space monotonic
    // and small enough that the arithmetic below cannot overflow.
    if (block.first_line > kMaxPlausibleLines ||
        block.line_count > kMaxPlausibleLines) {
      return CorruptData("archive: implausible line numbers in manifest");
    }
    if (!blocks.empty()) {
      const BlockInfo& prev = blocks.back();
      if (block.seq <= prev.seq) {
        return CorruptData("archive: block seqs not strictly increasing");
      }
      if (block.first_line < prev.first_line + prev.line_count) {
        return CorruptData("archive: block line ranges overlap");
      }
    }
    blocks.push_back(std::move(block));
  }
  if (in.remaining() != 0) {
    return CorruptData("archive: trailing garbage after manifest");
  }
  return blocks;
}

Result<LogArchive> LogArchive::Open(std::string dir, ArchiveOptions options) {
  LogArchive archive(std::move(dir), options);
  StorageEnv* env = archive.storage_env();
  Result<std::string> bytes =
      options.retry.enabled()
          ? RetryReadFile(env, options.retry, /*budget=*/nullptr,
                          archive.ManifestPath(), options.metrics)
          : ReadFileBytes(archive.ManifestPath(), env);
  if (!bytes.ok()) {
    return bytes.status();
  }
  Result<std::vector<BlockInfo>> blocks = ParseManifestBytes(*bytes);
  if (!blocks.ok()) {
    return blocks.status();
  }
  archive.blocks_ = std::move(*blocks);

  // Degraded-query bookkeeping loads *before* recovery: a quarantined block
  // is excused from the missing-file checks below (its hole is a known,
  // reported condition — possibly a tombstone repair already accepted — not
  // fresh corruption). A corrupt sidecar degrades to "nothing quarantined"
  // (queries rediscover sick blocks) — Open must not fail over bookkeeping.
  if (Status s = archive.ReloadQuarantine(); !s.ok()) {
    if (options.metrics != nullptr) {
      options.metrics->GetOrCreate("storage.quarantine.load_failures")->Add(1);
    }
  }

  // Crash recovery. A commit that died after the manifest tmp write but
  // before the rename leaves the *old* manifest in place — nothing to do
  // beyond sweeping. A manifest that somehow references a block whose file
  // never survived (e.g. manual tampering, partial restore) is repaired by
  // dropping trailing entries; an interior hole is real corruption unless
  // the quarantine already accounts for it.
  size_t dropped = 0;
  while (!archive.blocks_.empty() &&
         archive.quarantine_.Find(archive.blocks_.back().seq) == nullptr &&
         !env->FileExists(archive.BlockPath(archive.blocks_.back().seq))) {
    archive.blocks_.pop_back();
    ++dropped;
  }
  for (const BlockInfo& block : archive.blocks_) {
    if (archive.quarantine_.Find(block.seq) != nullptr) {
      continue;  // known hole; queries skip it, repair adjudicates it
    }
    if (!env->FileExists(archive.BlockPath(block.seq))) {
      return CorruptData("archive: interior block file missing: " +
                         archive.BlockPath(block.seq));
    }
  }
  // Only unquarantined blocks were dropped, so no quarantine entry is stale.
  if (dropped > 0) {
    LOGGREP_RETURN_IF_ERROR(archive.WriteManifest());
  }
  SweepTempFiles(archive.dir_, env);
  archive.SweepUnreferencedBlocks();
  return archive;
}

QuarantineSet LogArchive::quarantine() const {
  const std::lock_guard<std::mutex> lock(*quarantine_mu_);
  return quarantine_;
}

Status LogArchive::ReloadQuarantine() {
  const std::lock_guard<std::mutex> lock(*quarantine_mu_);
  Result<QuarantineSet> loaded = LoadQuarantine(dir_, storage_env());
  if (!loaded.ok()) {
    quarantine_ = QuarantineSet{};
    return loaded.status();
  }
  quarantine_ = std::move(*loaded);
  // Stale entries (blocks no longer in the manifest, e.g. a recovered tail)
  // must not report holes for data the archive no longer claims to hold.
  std::unordered_set<uint32_t> live;
  live.reserve(blocks_.size());
  for (const BlockInfo& block : blocks_) {
    live.insert(block.seq);
  }
  auto& entries = quarantine_.entries;
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&live](const QuarantineEntry& e) {
                                 return live.count(e.seq) == 0;
                               }),
                entries.end());
  return OkStatus();
}

std::string LogArchive::SerializeManifest() const {
  ByteWriter out;
  out.PutU32(kManifestMagic);
  out.PutU8(kManifestVersion);
  out.PutVarint(blocks_.size());
  for (const BlockInfo& block : blocks_) {
    out.PutVarint(block.seq);
    for (uint64_t field : {block.first_line, block.line_count, block.raw_bytes,
                           block.stored_bytes}) {
      out.PutVarint(field);
    }
    out.PutU64(block.content_hash);
    out.PutU64(block.stored_hash);
    block.token_stamp.WriteTo(out);
    block.shingles.WriteTo(out);
  }
  return std::string(out.data());
}

Status LogArchive::WriteManifest() const {
  return WriteFileAtomic(ManifestPath(), SerializeManifest(), storage_env());
}

void LogArchive::SweepUnreferencedBlocks() const {
  std::unordered_set<uint32_t> live;
  live.reserve(blocks_.size());
  for (const BlockInfo& block : blocks_) {
    live.insert(block.seq);
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    constexpr std::string_view kPrefix = "block-";
    constexpr std::string_view kSuffix = ".lgc";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    const std::string digits =
        name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    // `digits` must parse as a uint32 without throwing: cap the digit count
    // (std::stoul aborts the process via std::out_of_range on e.g. a
    // 40-digit filename someone drops into the directory).
    if (digits.empty() || digits.size() > 10 ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const uint64_t parsed = std::stoull(digits);  // <= 10 digits: no throw
    if (parsed > UINT32_MAX) {
      continue;  // not a live seq; leave the stray file alone
    }
    const uint32_t seq = static_cast<uint32_t>(parsed);
    if (live.count(seq) == 0) {
      (void)storage_env()->RemoveFile(entry.path().string());
    }
  }
}

Status LogArchive::AppendBlock(std::string_view text) {
  BlockInfo block = BuildBlockSummary(text, options_.bloom_bits_per_shingle);
  const std::string box = engine_.CompressBlock(text);
  return CommitCompressedBlock(box, std::move(block), nullptr);
}

Status LogArchive::CommitCompressedBlock(std::string_view box_bytes,
                                         BlockInfo block,
                                         const CommitHook& hook) {
  block.seq = blocks_.empty() ? 0 : blocks_.back().seq + 1;
  // Contiguous by default; a caller backfilling at a known global offset may
  // pre-set first_line to any value >= the current end (sparse line space).
  const uint64_t next_line =
      blocks_.empty()
          ? 0
          : blocks_.back().first_line + blocks_.back().line_count;
  if (block.first_line < next_line) {
    block.first_line = next_line;
  }
  block.stored_bytes = box_bytes.size();
  block.stored_hash = Fnv1a64(box_bytes);
  StorageEnv* env = storage_env();

  // Step 1+2: block file via tagged tmp + fsync + rename (kill points in
  // between). The ScopedTempFile registers the temp as live, so a concurrent
  // Open in this process (streaming ingest) never sweeps an in-flight write;
  // a kill-point abort leaves the temp behind exactly like a crash would,
  // and the next Open sweeps it (the guard has unregistered by then).
  const std::string path = BlockPath(block.seq);
  const ScopedTempFile block_tmp(path);
  // Each commit-path op retries transient backend failures (a retried torn
  // write simply rewrites the whole temp — the final name is untouched until
  // the rename).
  if (Status s = RetryStorage("commit.write_block",
                              [&] {
                                return env->WriteFile(block_tmp.path(),
                                                      box_bytes);
                              });
      !s.ok()) {
    (void)env->RemoveFile(block_tmp.path());  // never leave a torn temp
    return s;
  }
  // Durability point: the block's bytes are on stable storage before the
  // rename makes them reachable from the manifest.
  if (Status s = RetryStorage(
          "commit.sync_block", [&] { return env->SyncFile(block_tmp.path()); });
      !s.ok()) {
    (void)env->RemoveFile(block_tmp.path());
    return s;
  }
  if (hook && hook(CommitKillPoint::kBlockTmpWritten)) {
    return Internal(std::string("archive: commit aborted at ") +
                    CommitKillPointName(CommitKillPoint::kBlockTmpWritten));
  }
  if (Status s = RetryStorage(
          "commit.rename_block",
          [&] { return env->Rename(block_tmp.path(), path); });
      !s.ok()) {
    (void)env->RemoveFile(block_tmp.path());
    return s;
  }
  if (hook && hook(CommitKillPoint::kBlockRenamed)) {
    return Internal(std::string("archive: commit aborted at ") +
                    CommitKillPointName(CommitKillPoint::kBlockRenamed));
  }

  // Step 3+4: manifest swap. On any failure the in-memory state rolls back;
  // the already-renamed block file becomes an orphan swept at next Open.
  blocks_.push_back(std::move(block));
  const std::string manifest = SerializeManifest();
  const ScopedTempFile manifest_tmp(ManifestPath());
  if (Status s = RetryStorage("commit.write_manifest",
                              [&] {
                                return env->WriteFile(manifest_tmp.path(),
                                                      manifest);
                              });
      !s.ok()) {
    (void)env->RemoveFile(manifest_tmp.path());
    blocks_.pop_back();
    return s;
  }
  if (Status s = RetryStorage(
          "commit.sync_manifest",
          [&] { return env->SyncFile(manifest_tmp.path()); });
      !s.ok()) {
    (void)env->RemoveFile(manifest_tmp.path());
    blocks_.pop_back();
    return s;
  }
  if (hook && hook(CommitKillPoint::kManifestTmpWritten)) {
    blocks_.pop_back();
    return Internal(std::string("archive: commit aborted at ") +
                    CommitKillPointName(CommitKillPoint::kManifestTmpWritten));
  }
  if (Status s = RetryStorage(
          "commit.rename_manifest",
          [&] { return env->Rename(manifest_tmp.path(), ManifestPath()); });
      !s.ok()) {
    blocks_.pop_back();
    return s;
  }
  // Directory-entry durability: both renames survive power loss, not just
  // process death.
  LOGGREP_RETURN_IF_ERROR(
      RetryStorage("commit.sync_dir", [&] { return env->SyncDir(dir_); }));
  return OkStatus();
}

Status LogArchive::CommitTombstonedBlock(BlockInfo block,
                                         QuarantineEntry entry) {
  block.seq = blocks_.empty() ? 0 : blocks_.back().seq + 1;
  const uint64_t next_line =
      blocks_.empty()
          ? 0
          : blocks_.back().first_line + blocks_.back().line_count;
  if (block.first_line < next_line) {
    block.first_line = next_line;
  }
  entry.seq = block.seq;
  entry.tombstoned = true;

  const std::lock_guard<std::mutex> lock(*quarantine_mu_);
  // Sidecar first: Open treats a manifest entry with no block file as
  // corruption *unless* the quarantine explains it, and ReloadQuarantine
  // filters entries whose seq the manifest doesn't know — so sidecar-then-
  // manifest is safe on either side of a crash.
  const QuarantineSet saved_quarantine = quarantine_;
  quarantine_.Add(std::move(entry));
  if (Status s = RetryStorage("commit.write_quarantine",
                              [&] {
                                return SaveQuarantine(dir_, quarantine_,
                                                      storage_env());
                              });
      !s.ok()) {
    quarantine_ = saved_quarantine;
    return s;
  }

  blocks_.push_back(std::move(block));
  if (Status s = RetryStorage("commit.write_manifest",
                              [&] { return WriteManifest(); });
      !s.ok()) {
    blocks_.pop_back();
    quarantine_ = saved_quarantine;
    (void)SaveQuarantine(dir_, quarantine_, storage_env());  // best effort
    return s;
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Degraded queries
// ---------------------------------------------------------------------------

Status LogArchive::RetryStorage(const char* op_name,
                                const std::function<Status()>& op) const {
  if (!options_.retry.enabled()) {
    return op();
  }
  return RetryOp(storage_env(), options_.retry, /*budget=*/nullptr, op_name,
                 options_.metrics, op);
}

Result<std::string> LogArchive::LoadBlockBytes(uint32_t seq,
                                               const RetryBudget* budget) const {
  if (!options_.retry.enabled()) {
    return ReadFileBytes(BlockPath(seq), storage_env());
  }
  return RetryReadFile(storage_env(), options_.retry, budget, BlockPath(seq),
                       options_.metrics);
}

bool LogArchive::QuarantineBlock(const BlockInfo& block, const Status& cause) {
  QuarantineEntry entry;
  entry.seq = block.seq;
  entry.code = StatusCodeName(cause.code());
  entry.error = cause.message();
  entry.quarantined_unix = static_cast<uint64_t>(::time(nullptr));
  // One lock across the insert and the sidecar write, so concurrent
  // failures never persist an older set over a newer one.
  const std::lock_guard<std::mutex> lock(*quarantine_mu_);
  const bool added = quarantine_.Add(std::move(entry));
  if (added && options_.metrics != nullptr) {
    options_.metrics->GetOrCreate("storage.quarantine.added")->Add(1);
  }
  // Best effort: failing to persist the sidecar must not fail the query on
  // top of the block failure — the in-memory set still protects this
  // process, and the next failing query retries the write.
  if (Status s = SaveQuarantine(dir_, quarantine_, storage_env()); !s.ok()) {
    if (options_.metrics != nullptr) {
      options_.metrics->GetOrCreate("storage.quarantine.persist_failures")
          ->Add(1);
    }
  }
  return added;
}

bool LogArchive::SkipIfQuarantined(const BlockInfo& block, uint64_t line_base,
                                   PartialReport* report) const {
  const std::lock_guard<std::mutex> lock(*quarantine_mu_);
  const QuarantineEntry* entry = quarantine_.Find(block.seq);
  if (entry == nullptr) {
    return false;
  }
  BlockQueryFailure failure;
  failure.seq = block.seq;
  failure.first_line = line_base + block.first_line;
  failure.line_count = block.line_count;
  failure.error = entry->code.empty()
                      ? entry->error
                      : entry->code + ": " + entry->error;
  failure.newly_quarantined = false;
  failure.tombstoned = entry->tombstoned;
  report->failures.push_back(std::move(failure));
  return true;
}

bool LogArchive::DegradeOnFailure(const BlockInfo& block, uint64_t line_base,
                                  const Status& cause, bool degrade,
                                  PartialReport* report) {
  // A malformed query is the caller's bug, not the block's: never degrade.
  if (!degrade || cause.code() == StatusCode::kInvalidArgument) {
    return false;
  }
  BlockQueryFailure failure;
  failure.seq = block.seq;
  failure.first_line = line_base + block.first_line;
  failure.line_count = block.line_count;
  failure.error = cause.ToString();
  failure.newly_quarantined = QuarantineBlock(block, cause);
  failure.tombstoned = false;
  report->failures.push_back(std::move(failure));
  return true;
}

uint64_t LogArchive::PruneBlocks(const std::vector<std::string>& required,
                                 std::vector<const BlockInfo*>* to_query,
                                 uint32_t* pruned,
                                 QueryExplain* explain) const {
  const TraceSpan span("archive.prune", "query", "blocks", blocks_.size());
  const WallTimer timer;
  for (const BlockInfo& block : blocks_) {
    bool drop = false;
    std::string reason;
    for (const std::string& kw : required) {
      if (!BlockMayContainKeyword(block, kw,
                                  explain != nullptr ? &reason : nullptr)) {
        drop = true;
        break;
      }
    }
    if (explain != nullptr) {
      BlockExplain be;
      be.seq = block.seq;
      be.block_pruned = drop;
      be.prune_reason = std::move(reason);
      explain->blocks.push_back(std::move(be));
    }
    if (drop) {
      ++*pruned;
    } else {
      to_query->push_back(&block);
    }
  }
  return timer.ElapsedNanos();
}

Result<ArchiveQueryResult> LogArchive::Query(std::string_view command,
                                             const QueryOptions& options) {
  return RunQuery(command, {QueryTarget{this}}, options);
}

Result<ArchiveQueryResult> LogArchive::Explain(std::string_view command,
                                               QueryExplain* explain,
                                               const QueryOptions& options) {
  return RunQuery(command, {QueryTarget{this, 0, explain}}, options);
}

Result<ArchiveQueryResult> LogArchive::RunQuery(
    std::string_view command, const std::vector<QueryTarget>& targets,
    const QueryOptions& options) {
  const bool threaded = options.threads > 1;
  const bool explaining =
      std::any_of(targets.begin(), targets.end(),
                  [](const QueryTarget& t) { return t.explain != nullptr; });
  const TraceSpan span(explaining ? "archive.explain"
                       : threaded ? "archive.parallel_query"
                                  : "archive.query",
                       "query");
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  if (!expr.ok()) {
    return expr.status();
  }
  const std::vector<std::string> required = RequiredKeywords(**expr);

  // One task per block that survives pruning and quarantine, across every
  // target, in target-then-block order.
  struct Task {
    const QueryTarget* target;
    const BlockInfo* block;
    BlockExplain* explain;  // null unless the target explains
    Status status;
    QueryResult result;
  };
  ArchiveQueryResult result;
  std::vector<Task> tasks;
  // Each target's standing holes, reported ahead of its fresh failures.
  std::vector<PartialReport> standing(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    const QueryTarget& target = targets[t];
    LogArchive& archive = *target.archive;
    if (target.explain != nullptr) {
      target.explain->command.assign(command.data(), command.size());
      target.explain->blocks.clear();
    }
    std::vector<const BlockInfo*> to_query;
    result.locator.prune_nanos += archive.PruneBlocks(
        required, &to_query, &result.blocks_pruned, target.explain);
    for (const BlockInfo* block : to_query) {
      // PruneBlocks appended one BlockExplain per block, in blocks_ order.
      BlockExplain* be =
          target.explain != nullptr
              ? &target.explain->blocks[block - archive.blocks_.data()]
              : nullptr;
      // Known-sick blocks are standing holes, skipped without touching
      // storage (no retry storm on a known-sick block). Strict mode is
      // complete-or-error: a standing hole (even one a repair already
      // tombstoned) makes the answer incomplete, so it fails rather than
      // silently narrowing to healthy blocks.
      if (!archive.SkipIfQuarantined(*block, target.line_base, &standing[t])) {
        tasks.push_back(Task{&target, block, be, {}, {}});
        continue;
      }
      const std::string& error = standing[t].failures.back().error;
      if (!options.degrade) {
        return Status(StatusCode::kUnavailable,
                      "block " + std::to_string(block->seq) +
                          " is quarantined and degraded queries are "
                          "disabled: " +
                          error);
      }
      if (be != nullptr) {
        be->block_failed = true;
        be->failure = error;
      }
    }
  }

  // One retry budget for the whole call: the *query* has a deadline, not
  // each block or shard (Expired() is a lock-free read of the env clock, so
  // workers share it).
  const RetryBudget budget(
      targets.empty() ? nullptr : targets[0].archive->storage_env(),
      options.deadline_ns);
  auto run_task = [&](Task& task) {
    LogArchive& archive = *task.target->archive;
    const uint32_t seq = task.block->seq;
    const TraceSpan block_span("archive.query_block", "query", "seq", seq);
    // Warm blocks never touch the file: the loader only runs on a box-cache
    // miss (or when the archive runs without a cache).
    auto loader = [&archive, seq, &budget]() -> Result<std::string> {
      return archive.LoadBlockBytes(seq, &budget);
    };
    Result<QueryResult> r = archive.engine_.QueryBox(
        archive.KeyForBlock(seq), loader, command, task.explain);
    if (r.ok()) {
      task.result = std::move(*r);
    } else {
      task.status = r.status();
    }
  };
  if (threaded && tasks.size() > 1) {
    // Every worker calls its block's archive's one engine: the caches are
    // shared and thread-safe, so a block decompressed or answered by one
    // worker (or by a prior serial query) is warm for every other.
    ThreadPool pool(std::min(options.threads, tasks.size()));
    for (Task& task : tasks) {
      // ThreadPool installs the submitting span as parent, so block spans
      // nest under archive.parallel_query even on worker threads.
      pool.Submit([&] { run_task(task); });
    }
    pool.Wait();
  } else {
    for (Task& task : tasks) {
      run_task(task);
      if (!task.status.ok() && !options.degrade) {
        break;  // the collection below fails the query on this block
      }
    }
  }

  // Collection runs on the calling thread, in target-then-block order.
  auto next = tasks.begin();
  for (size_t t = 0; t < targets.size(); ++t) {
    const QueryTarget& target = targets[t];
    for (BlockQueryFailure& hole : standing[t].failures) {
      result.partial.failures.push_back(std::move(hole));
    }
    for (; next != tasks.end() && next->target == &target; ++next) {
      const BlockInfo& block = *next->block;
      if (!next->status.ok()) {
        if (!target.archive->DegradeOnFailure(block, target.line_base,
                                              next->status, options.degrade,
                                              &result.partial)) {
          return next->status;
        }
        if (next->explain != nullptr) {
          next->explain->block_failed = true;
          next->explain->failure = result.partial.failures.back().error;
        }
        continue;
      }
      ++result.blocks_queried;
      if (next->result.from_cache) {
        ++result.blocks_from_cache;
      }
      const uint64_t base = target.line_base + block.first_line;
      for (auto& [line, text_line] : next->result.hits) {
        result.hits.emplace_back(base + line, std::move(text_line));
      }
      result.locator.Accumulate(next->result.locator);
      next->result = QueryResult();  // the hits moved out; release them
    }
  }
  return result;
}

uint64_t LogArchive::total_lines() const {
  uint64_t n = 0;
  for (const BlockInfo& b : blocks_) {
    n += b.line_count;
  }
  return n;
}

uint64_t LogArchive::total_raw_bytes() const {
  uint64_t n = 0;
  for (const BlockInfo& b : blocks_) {
    n += b.raw_bytes;
  }
  return n;
}

uint64_t LogArchive::total_stored_bytes() const {
  uint64_t n = 0;
  for (const BlockInfo& b : blocks_) {
    n += b.stored_bytes;
  }
  return n;
}

}  // namespace loggrep
