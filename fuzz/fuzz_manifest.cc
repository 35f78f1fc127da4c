// Fuzz target: archive manifest parsing on arbitrary bytes. Property: any
// input yields blocks or a clean Status — no crash, no unbounded reserve
// from hostile counts, and accepted manifests satisfy the parser's own
// invariants (strictly increasing seq, non-overlapping line ranges).
// Every accepted block filter is then probed with a few fixed shingles, so
// hostile filter sizes (1 byte, odd and power-of-two lengths, hash counts up
// to the parser's cap) run through indexing and folding; an unsized filter
// must admit everything, and folding a filter must keep every "maybe" it
// gave before.
//
// The same bytes also feed the quarantine sidecar parser (the archive's
// other metadata file). An accepted sidecar must re-serialize and re-parse
// to the same entries.
#include <cstdint>
#include <string_view>

#include "fuzz/fuzz_driver.h"
#include "src/store/log_archive.h"
#include "src/store/quarantine.h"

namespace {

constexpr std::string_view kProbeShingles[] = {
    "ERRO", "conn", "0x7F", std::string_view("\0\xff\0\xff", 4)};

void CheckQuarantineRoundTrip(std::string_view input) {
  auto set = loggrep::ParseQuarantineJson(input);
  if (!set.ok()) {
    if (set.status().code() != loggrep::StatusCode::kCorruptData) {
      __builtin_trap();  // hostile sidecar bytes are corrupt data, nothing else
    }
    return;
  }
  auto again =
      loggrep::ParseQuarantineJson(loggrep::SerializeQuarantineJson(*set));
  if (!again.ok() || again->entries.size() != set->entries.size()) {
    __builtin_trap();  // the writer's own output must read back
  }
  for (size_t i = 0; i < set->entries.size(); ++i) {
    const loggrep::QuarantineEntry& a = set->entries[i];
    const loggrep::QuarantineEntry& b = again->entries[i];
    if (a.seq != b.seq || a.code != b.code || a.error != b.error ||
        a.tombstoned != b.tombstoned ||
        a.quarantined_unix != b.quarantined_unix) {
      __builtin_trap();  // round trip changed an entry
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  CheckQuarantineRoundTrip(input);
  auto blocks = loggrep::ParseManifestBytes(input);
  if (!blocks.ok()) {
    return 0;
  }
  uint64_t prev_seq = 0;
  uint64_t prev_end = 0;
  bool first = true;
  for (const loggrep::BlockInfo& block : *blocks) {
    if (!first && (block.seq <= prev_seq || block.first_line < prev_end)) {
      __builtin_trap();  // parser accepted an invariant violation
    }
    loggrep::BloomFilter folded = block.shingles;
    folded.FoldToFit(10);
    for (std::string_view shingle : kProbeShingles) {
      const bool maybe = block.shingles.MayContain(shingle);
      if (block.shingles.empty() && !maybe) {
        __builtin_trap();  // an unsized filter must filter nothing
      }
      if (maybe && !folded.MayContain(shingle)) {
        __builtin_trap();  // folding lost an item
      }
    }
    prev_seq = block.seq;
    prev_end = block.first_line + block.line_count;
    first = false;
  }
  return 0;
}
