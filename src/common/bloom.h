// Serializable Bloom filter (double hashing over FNV-1a), used by the
// archive layer to prune whole blocks per keyword before any CapsuleBox is
// opened.
#ifndef SRC_COMMON_BLOOM_H_
#define SRC_COMMON_BLOOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"

namespace loggrep {

class BloomFilter {
 public:
  BloomFilter() = default;
  // `expected_items` sized at `bits_per_item` bits each, rounded up to a
  // power of two (at least 64 bits); hash count derived from the classic
  // optimum k = ln2 * bits_per_item.
  BloomFilter(uint64_t expected_items, uint32_t bits_per_item);

  void Add(std::string_view item);
  // False when the item is definitely absent.
  bool MayContain(std::string_view item) const;

  // Shrinks an over-sized filter to the items it actually holds: estimates
  // the distinct item count n from the fill, then halves the filter (ORing
  // its two halves) while half the bits still give `bits_per_item` per
  // item. The result is bit-identical to a filter built at the final size
  // from the same items, so no item added before is lost. Filters whose bit
  // count is not a power of two (written before sizes were rounded) cannot
  // be folded and are left as they are.
  void FoldToFit(uint32_t bits_per_item);

  bool empty() const { return bits_.empty(); }
  size_t SizeBytes() const { return bits_.size(); }
  // Fraction of set bits (diagnostic; ~0.5 means saturated).
  double FillRatio() const;

  void WriteTo(ByteWriter& out) const;
  static Result<BloomFilter> ReadFrom(ByteReader& in);

 private:
  uint32_t num_hashes_ = 0;
  std::string bits_;  // bit array, 8 bits per char
};

}  // namespace loggrep

#endif  // SRC_COMMON_BLOOM_H_
