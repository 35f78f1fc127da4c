#include "src/query/box_cache.h"

#include <algorithm>
#include <cstdio>

#include "src/capsule/capsule.h"  // SplitDelimitedBlob
#include "src/common/hash.h"
#include "src/common/trace.h"
#include "src/query/query_cache.h"  // CachedQuery

namespace loggrep {
namespace {

// Fixed bookkeeping charge per entry: map node + LRU node + shared_ptr
// control block + the lazily materialized split vector's own header. The
// split payload (16 bytes per value) is intentionally approximated by this
// constant plus the blob bytes it views; DESIGN.md documents the tradeoff.
constexpr size_t kEntryOverhead = 128;

// Charge per result hit on top of its text: the (line, string) pair, the
// string header and heap slack.
constexpr size_t kPerHit = 48;

// Second, independent FNV seed for the dual-hash identity.
constexpr uint64_t kAltSeed = 0x84222325CBF29CE4ULL;

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

BoxKey BoxKey::FromBytes(std::string_view bytes) {
  BoxKey key;
  key.h1 = Fnv1a64(bytes);
  key.h2 = Fnv1a64(bytes, kAltSeed);
  key.size = bytes.size();
  return key;
}

BoxKey BoxKey::ForSequence(uint64_t namespace_id, uint64_t seq) {
  BoxKey key;
  key.h1 = Mix64(namespace_id);
  key.h2 = Mix64(seq ^ 0xA5A5A5A5A5A5A5A5ULL);
  // Sentinel size: serialized boxes are never this large, so sequence keys
  // can never equal a content key.
  key.size = UINT64_MAX;
  return key;
}

uint64_t BoxKey::NextNamespaceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string BoxKey::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx%016llx",
                static_cast<unsigned long long>(h1),
                static_cast<unsigned long long>(h2),
                static_cast<unsigned long long>(size));
  return buf;
}

Result<std::shared_ptr<const OpenedBox>> OpenedBox::Open(std::string bytes) {
  // Construct in place on the heap, then parse against the final resting
  // address of `bytes_` — the CapsuleBox keeps views into it.
  std::shared_ptr<OpenedBox> opened(new OpenedBox());
  opened->bytes_ = std::move(bytes);
  Result<CapsuleBox> box = CapsuleBox::Open(opened->bytes_);
  if (!box.ok()) {
    return box.status();
  }
  opened->box_ = std::move(*box);
  return std::shared_ptr<const OpenedBox>(std::move(opened));
}

const std::vector<std::string_view>& CachedCapsule::splits() const {
  std::call_once(split_once_,
                 [this] { splits_ = SplitDelimitedBlob(blob_); });
  return splits_;
}

size_t BoxCache::EntryKeyHash::operator()(const EntryKey& k) const {
  uint64_t h = Mix64(k.box.h1 ^ Mix64(k.box.h2));
  h = Mix64(h ^ k.box.size);
  h = Mix64(h ^ k.slot);
  if (!k.command.empty()) {
    h = Mix64(h ^ Fnv1a64(k.command));
  }
  return static_cast<size_t>(h);
}

BoxCache::BoxCache(BoxCacheOptions options) : options_(options) {
  if (options_.shards == 0) {
    options_.shards = 1;
  }
  per_shard_budget_ = std::max<size_t>(1, options_.byte_budget / options_.shards);
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.metrics != nullptr) {
    m_hits_ = options_.metrics->GetOrCreate("query.box_cache.hits");
    m_misses_ = options_.metrics->GetOrCreate("query.box_cache.misses");
    m_evictions_ = options_.metrics->GetOrCreate("query.box_cache.evictions");
    m_bytes_saved_ =
        options_.metrics->GetOrCreate("query.box_cache.bytes_saved");
    m_bytes_hwm_ =
        options_.metrics->GetOrCreate("query.box_cache.bytes_in_use_hwm");
  }
}

BoxCache::Shard& BoxCache::ShardFor(const EntryKey& key) {
  return *shards_[EntryKeyHash{}(key) % shards_.size()];
}

void BoxCache::EvictOverBudgetLocked(Shard& shard) {
  // Never evict the freshest entry: one oversized capsule (or result) must
  // still be usable for the query that loaded it.
  while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
    auto it = shard.map.find(shard.lru.back());
    shard.bytes -= it->second.charge;
    if (it->first.slot == kResultSlot) {
      shard.result_bytes -= it->second.charge;
      result_evictions_.fetch_add(1, std::memory_order_relaxed);
    } else {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (m_evictions_ != nullptr) {
        m_evictions_->Increment();
      }
    }
    shard.map.erase(it);
    shard.lru.pop_back();
  }
}

std::optional<BoxCache::Entry> BoxCache::Find(const EntryKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second;
}

BoxCache::Entry BoxCache::InsertOrAdopt(const EntryKey& key, Entry entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Raced with another loader: adopt the resident entry, discard ours.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second;
  }
  shard.lru.push_front(key);
  entry.lru_it = shard.lru.begin();
  shard.bytes += entry.charge;
  if (key.slot == kResultSlot) {
    shard.result_bytes += entry.charge;
  }
  auto inserted = shard.map.emplace(key, std::move(entry)).first;
  EvictOverBudgetLocked(shard);
  if (m_bytes_hwm_ != nullptr) {
    m_bytes_hwm_->UpdateMax(shard.bytes - shard.result_bytes);
  }
  return inserted->second;
}

void BoxCache::CountHit(std::atomic<uint64_t>& hits, uint64_t bytes_saved,
                        bool* was_hit) {
  hits.fetch_add(1, std::memory_order_relaxed);
  bytes_saved_.fetch_add(bytes_saved, std::memory_order_relaxed);
  if (m_hits_ != nullptr) {
    m_hits_->Increment();
  }
  if (m_bytes_saved_ != nullptr) {
    m_bytes_saved_->Add(bytes_saved);
  }
  if (was_hit != nullptr) {
    *was_hit = true;
  }
}

void BoxCache::CountMiss(std::atomic<uint64_t>& misses, bool* was_hit) {
  misses.fetch_add(1, std::memory_order_relaxed);
  if (m_misses_ != nullptr) {
    m_misses_->Increment();
  }
  if (was_hit != nullptr) {
    *was_hit = false;
  }
}

Result<std::shared_ptr<const OpenedBox>> BoxCache::GetOrOpenBox(
    const BoxKey& key, const std::function<Result<std::string>()>& load,
    bool* was_hit) {
  const EntryKey ekey{key, kBoxSlot, {}};
  if (std::optional<Entry> hit = Find(ekey)) {
    CountHit(box_hits_, hit->charge, was_hit);
    return hit->box;
  }
  // Miss: load and open outside the lock.
  const TraceSpan span("box_cache.load_box", "query");
  Result<std::string> bytes = load();
  if (!bytes.ok()) {
    return bytes.status();
  }
  Result<std::shared_ptr<const OpenedBox>> opened =
      OpenedBox::Open(std::move(*bytes));
  if (!opened.ok()) {
    return opened.status();
  }
  Entry entry;
  entry.box = *opened;
  entry.charge = entry.box->bytes().size() + kEntryOverhead;
  const Entry resident = InsertOrAdopt(ekey, std::move(entry));
  CountMiss(box_misses_, was_hit);
  return resident.box;
}

Result<std::shared_ptr<const CachedCapsule>> BoxCache::GetOrLoadCapsule(
    const BoxKey& key, uint32_t capsule_id,
    const std::function<Result<std::string>()>& load, bool* was_hit) {
  const EntryKey ekey{key, capsule_id, {}};
  if (std::optional<Entry> hit = Find(ekey)) {
    CountHit(capsule_hits_, hit->capsule->blob().size(), was_hit);
    return hit->capsule;
  }
  const TraceSpan span("box_cache.load_capsule", "query", "capsule",
                       capsule_id);
  Result<std::string> blob = load();
  if (!blob.ok()) {
    return blob.status();
  }
  Entry entry;
  entry.capsule = std::make_shared<const CachedCapsule>(std::move(*blob));
  entry.charge = entry.capsule->blob().size() + kEntryOverhead;
  const Entry resident = InsertOrAdopt(ekey, std::move(entry));
  CountMiss(capsule_misses_, was_hit);
  return resident.capsule;
}

std::shared_ptr<const CachedQuery> BoxCache::LookupResult(
    const BoxKey& key, std::string_view command) {
  std::optional<Entry> hit =
      Find(EntryKey{key, kResultSlot, std::string(command)});
  (hit.has_value() ? result_hits_ : result_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  return hit.has_value() ? hit->result : nullptr;
}

void BoxCache::InsertResult(const BoxKey& key, std::string_view command,
                            CachedQuery value) {
  Entry entry;
  // The key's command text is held twice (map key and LRU node).
  entry.charge = kEntryOverhead + 2 * command.size();
  for (const auto& [line, text] : value.hits) {
    (void)line;
    entry.charge += text.size() + kPerHit;
  }
  entry.result = std::make_shared<const CachedQuery>(std::move(value));
  InsertOrAdopt(EntryKey{key, kResultSlot, std::string(command)},
                std::move(entry));
}

void BoxCache::ClearResults() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->slot != kResultSlot) {
        ++it;
        continue;
      }
      auto entry = shard->map.find(*it);
      shard->bytes -= entry->second.charge;
      shard->result_bytes -= entry->second.charge;
      shard->map.erase(entry);
      it = shard->lru.erase(it);
    }
  }
}

BoxCacheStats BoxCache::Stats() const {
  BoxCacheStats stats;
  stats.box_hits = box_hits_.load(std::memory_order_relaxed);
  stats.box_misses = box_misses_.load(std::memory_order_relaxed);
  stats.capsule_hits = capsule_hits_.load(std::memory_order_relaxed);
  stats.capsule_misses = capsule_misses_.load(std::memory_order_relaxed);
  stats.result_hits = result_hits_.load(std::memory_order_relaxed);
  stats.result_misses = result_misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.result_evictions = result_evictions_.load(std::memory_order_relaxed);
  stats.bytes_saved = bytes_saved_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.bytes_in_use += shard->bytes;
    stats.entries += shard->map.size();
  }
  return stats;
}

}  // namespace loggrep
