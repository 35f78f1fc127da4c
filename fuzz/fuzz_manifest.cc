// Fuzz target: archive manifest parsing on arbitrary bytes. Property: any
// input yields blocks or a clean Status — no crash, no unbounded reserve
// from hostile counts, and accepted manifests satisfy the parser's own
// invariants (strictly increasing seq, non-overlapping line ranges).
// Every accepted block filter is then probed with a few fixed shingles, so
// hostile filter sizes (1 byte, odd and power-of-two lengths, hash counts up
// to the parser's cap) run through indexing and folding; an unsized filter
// must admit everything, and folding a filter must keep every "maybe" it
// gave before.
#include <cstdint>
#include <string_view>

#include "fuzz/fuzz_driver.h"
#include "src/store/log_archive.h"

namespace {

constexpr std::string_view kProbeShingles[] = {
    "ERRO", "conn", "0x7F", std::string_view("\0\xff\0\xff", 4)};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
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
