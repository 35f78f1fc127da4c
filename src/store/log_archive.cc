#include "src/store/log_archive.h"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <set>
#include <unordered_map>
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

inline uint64_t ElapsedNanos(const WallTimer& timer) {
  return timer.ElapsedNanos();
}

// Engine options for an archive-embedded engine: wire in the shared cache
// (the engine must not own a second, private one).
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
  if (dropped > 0) {
    LOGGREP_RETURN_IF_ERROR(archive.WriteManifest());
    // Entries for dropped trailing blocks are now stale; re-filter.
    std::unordered_set<uint32_t> live;
    live.reserve(archive.blocks_.size());
    for (const BlockInfo& block : archive.blocks_) {
      live.insert(block.seq);
    }
    auto& entries = archive.quarantine_.entries;
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&live](const QuarantineEntry& e) {
                                   return live.count(e.seq) == 0;
                                 }),
                  entries.end());
  }
  SweepTempFiles(archive.dir_, env);
  archive.SweepUnreferencedBlocks();
  return archive;
}

Status LogArchive::ReloadQuarantine() {
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

void LogArchive::QuarantineBlock(const BlockInfo& block, const Status& cause) {
  QuarantineEntry entry;
  entry.seq = block.seq;
  entry.code = StatusCodeName(cause.code());
  entry.error = cause.message();
  entry.quarantined_unix = static_cast<uint64_t>(::time(nullptr));
  quarantine_.Add(std::move(entry));
  if (options_.metrics != nullptr) {
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
}

bool LogArchive::SkipIfQuarantined(const BlockInfo& block,
                                   PartialReport* report) const {
  const QuarantineEntry* entry = quarantine_.Find(block.seq);
  if (entry == nullptr) {
    return false;
  }
  BlockQueryFailure failure;
  failure.seq = block.seq;
  failure.first_line = block.first_line;
  failure.line_count = block.line_count;
  failure.error = entry->code.empty()
                      ? entry->error
                      : entry->code + ": " + entry->error;
  failure.newly_quarantined = false;
  failure.tombstoned = entry->tombstoned;
  report->failures.push_back(std::move(failure));
  return true;
}

bool LogArchive::DegradeOnFailure(const BlockInfo& block, const Status& cause,
                                  PartialReport* report) {
  // A malformed query is the caller's bug, not the block's: never degrade.
  if (!options_.degraded_queries ||
      cause.code() == StatusCode::kInvalidArgument) {
    return false;
  }
  QuarantineBlock(block, cause);
  BlockQueryFailure failure;
  failure.seq = block.seq;
  failure.first_line = block.first_line;
  failure.line_count = block.line_count;
  failure.error = cause.ToString();
  failure.newly_quarantined = true;
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
  return ElapsedNanos(timer);
}

Result<ArchiveQueryResult> LogArchive::Query(std::string_view command) {
  const TraceSpan span("archive.query", "query");
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  if (!expr.ok()) {
    return expr.status();
  }
  const std::vector<std::string> required = RequiredKeywords(**expr);

  ArchiveQueryResult result;
  std::vector<const BlockInfo*> to_query;
  result.locator.prune_nanos =
      PruneBlocks(required, &to_query, &result.blocks_pruned);

  const RetryBudget budget(storage_env(), options_.query_deadline_ns);
  for (const BlockInfo* block : to_query) {
    if (SkipIfQuarantined(*block, &result.partial)) {
      // Strict mode is complete-or-error: a standing hole (even one a repair
      // already tombstoned) makes the answer incomplete, so it must fail
      // rather than silently narrow to the healthy blocks.
      if (!options_.degraded_queries) {
        return Status(StatusCode::kUnavailable,
                      "block " + std::to_string(block->seq) +
                          " is quarantined and degraded queries are "
                          "disabled: " +
                          result.partial.failures.back().error);
      }
      continue;  // standing hole; no retry storm on a known-sick block
    }
    const TraceSpan block_span("archive.query_block", "query", "seq",
                               block->seq);
    // Warm blocks never touch the file: the loader only runs on a box-cache
    // miss (or when the archive runs without a cache).
    auto loader = [this, block, &budget]() -> Result<std::string> {
      return LoadBlockBytes(block->seq, &budget);
    };
    Result<QueryResult> block_result =
        engine_.QueryBox(KeyForBlock(block->seq), loader, command);
    if (!block_result.ok()) {
      if (DegradeOnFailure(*block, block_result.status(), &result.partial)) {
        continue;
      }
      return block_result.status();
    }
    ++result.blocks_queried;
    if (block_result->from_cache) {
      ++result.blocks_from_cache;
    }
    for (auto& [line, text_line] : block_result->hits) {
      result.hits.emplace_back(block->first_line + line, std::move(text_line));
    }
    result.locator.Accumulate(block_result->locator);
  }
  return result;
}

Result<ArchiveQueryResult> LogArchive::Explain(std::string_view command,
                                               QueryExplain* explain) {
  const TraceSpan span("archive.explain", "query");
  explain->command.assign(command.data(), command.size());
  explain->blocks.clear();
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  if (!expr.ok()) {
    return expr.status();
  }
  const std::vector<std::string> required = RequiredKeywords(**expr);

  ArchiveQueryResult result;
  std::vector<const BlockInfo*> to_query;
  result.locator.prune_nanos =
      PruneBlocks(required, &to_query, &result.blocks_pruned, explain);

  // PruneBlocks appended one BlockExplain per block, in blocks_ order; map
  // seq -> slot so each queried block fills its own record.
  std::unordered_map<uint32_t, size_t> slot_of_seq;
  slot_of_seq.reserve(explain->blocks.size());
  for (size_t i = 0; i < explain->blocks.size(); ++i) {
    slot_of_seq.emplace(explain->blocks[i].seq, i);
  }

  const RetryBudget budget(storage_env(), options_.query_deadline_ns);
  for (const BlockInfo* block : to_query) {
    BlockExplain* be = &explain->blocks[slot_of_seq.at(block->seq)];
    if (SkipIfQuarantined(*block, &result.partial)) {
      if (!options_.degraded_queries) {
        return Status(StatusCode::kUnavailable,
                      "block " + std::to_string(block->seq) +
                          " is quarantined and degraded queries are "
                          "disabled: " +
                          result.partial.failures.back().error);
      }
      be->block_failed = true;
      be->failure = result.partial.failures.back().error;
      continue;
    }
    const TraceSpan block_span("archive.query_block", "query", "seq",
                               block->seq);
    auto loader = [this, block, &budget]() -> Result<std::string> {
      return LoadBlockBytes(block->seq, &budget);
    };
    Result<QueryResult> block_result =
        engine_.ExplainBox(KeyForBlock(block->seq), loader, command, be);
    if (!block_result.ok()) {
      if (DegradeOnFailure(*block, block_result.status(), &result.partial)) {
        be->block_failed = true;
        be->failure = result.partial.failures.back().error;
        continue;
      }
      return block_result.status();
    }
    ++result.blocks_queried;
    for (auto& [line, text_line] : block_result->hits) {
      result.hits.emplace_back(block->first_line + line, std::move(text_line));
    }
    result.locator.Accumulate(block_result->locator);
  }
  return result;
}

Result<ArchiveQueryResult> LogArchive::ParallelQuery(std::string_view command,
                                                     size_t num_threads) {
  const TraceSpan span("archive.parallel_query", "query");
  Result<std::unique_ptr<QueryExpr>> expr = ParseQuery(command);
  if (!expr.ok()) {
    return expr.status();
  }
  const std::vector<std::string> required = RequiredKeywords(**expr);

  ArchiveQueryResult result;
  std::vector<const BlockInfo*> to_query;
  result.locator.prune_nanos =
      PruneBlocks(required, &to_query, &result.blocks_pruned);

  // Known-sick blocks are skipped up front (a standing hole each); only
  // healthy blocks are fanned out to workers.
  std::vector<const BlockInfo*> submitted;
  submitted.reserve(to_query.size());
  for (const BlockInfo* block : to_query) {
    if (!SkipIfQuarantined(*block, &result.partial)) {
      submitted.push_back(block);
    }
  }

  struct PerBlock {
    Status status;
    QueryHits hits;
    LocatorStats locator;
  };
  std::vector<PerBlock> slots(submitted.size());
  // One retry budget shared by every worker: the *query* has a deadline, not
  // each block (Expired() is a lock-free read of the env clock).
  const RetryBudget budget(storage_env(), options_.query_deadline_ns);
  {
    ThreadPool pool(num_threads);
    for (size_t i = 0; i < submitted.size(); ++i) {
      const BlockInfo* block = submitted[i];
      PerBlock* slot = &slots[i];
      const std::string command_copy(command);
      const BoxKey key = KeyForBlock(block->seq);
      EngineOptions opts = options_.engine;
      opts.use_cache = false;  // per-task engines share no command cache...
      // ...but they all share the archive's BoxCache: a block decompressed by
      // one worker (or a prior serial query) is warm for every other.
      opts.box_cache = box_cache_.get();
      opts.use_box_cache = box_cache_ != nullptr;
      pool.Submit([this, block, slot, command_copy, key, opts, &budget] {
        // ThreadPool installs the submitting span as parent, so this span
        // nests under archive.parallel_query in the exported trace even
        // though it runs on a worker thread.
        const TraceSpan block_span("archive.query_block", "query", "seq",
                                   block->seq);
        LogGrepEngine engine(opts);
        auto loader = [this, block, &budget]() -> Result<std::string> {
          return LoadBlockBytes(block->seq, &budget);
        };
        Result<QueryResult> r = engine.QueryBox(key, loader, command_copy);
        if (!r.ok()) {
          slot->status = r.status();
          return;
        }
        slot->locator = r->locator;
        for (auto& [line, text] : r->hits) {
          slot->hits.emplace_back(block->first_line + line, std::move(text));
        }
      });
    }
    pool.Wait();
  }
  // Collection runs on the calling thread: quarantine mutation and sidecar
  // persistence stay single-threaded.
  for (size_t i = 0; i < submitted.size(); ++i) {
    PerBlock& slot = slots[i];
    if (!slot.status.ok()) {
      if (DegradeOnFailure(*submitted[i], slot.status, &result.partial)) {
        continue;
      }
      return slot.status;
    }
    ++result.blocks_queried;
    result.hits.insert(result.hits.end(),
                       std::make_move_iterator(slot.hits.begin()),
                       std::make_move_iterator(slot.hits.end()));
    result.locator.Accumulate(slot.locator);
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
