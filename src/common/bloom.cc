#include "src/common/bloom.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/hash.h"

namespace loggrep {

BloomFilter::BloomFilter(uint64_t expected_items, uint32_t bits_per_item) {
  const uint64_t bits =
      std::bit_ceil(std::max<uint64_t>(64, expected_items * bits_per_item));
  bits_.assign(bits / 8, '\0');
  num_hashes_ = std::max<uint32_t>(1, static_cast<uint32_t>(bits_per_item * 0.69));
}

void BloomFilter::Add(std::string_view item) {
  const uint64_t h1 = Fnv1a64(item);
  const uint64_t h2 = Fnv1a64(item, 0x9E3779B97F4A7C15ULL) | 1;
  const uint64_t nbits = bits_.size() * 8;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = (h1 + i * h2) % nbits;
    bits_[bit / 8] |= static_cast<char>(1u << (bit % 8));
  }
}

bool BloomFilter::MayContain(std::string_view item) const {
  if (bits_.empty()) {
    return true;  // an unsized filter filters nothing
  }
  const uint64_t h1 = Fnv1a64(item);
  const uint64_t h2 = Fnv1a64(item, 0x9E3779B97F4A7C15ULL) | 1;
  const uint64_t nbits = bits_.size() * 8;
  for (uint32_t i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = (h1 + i * h2) % nbits;
    if ((bits_[bit / 8] & static_cast<char>(1u << (bit % 8))) == 0) {
      return false;
    }
  }
  return true;
}

void BloomFilter::FoldToFit(uint32_t bits_per_item) {
  const uint64_t nbits = bits_.size() * 8;
  const double fill = FillRatio();
  if (num_hashes_ == 0 || !std::has_single_bit(nbits) || fill >= 1.0) {
    return;
  }
  // Expected fill after n items is 1 - exp(-k n / m); invert it.
  const double items =
      -(static_cast<double>(nbits) / num_hashes_) * std::log1p(-fill);
  const double needed_bits = static_cast<double>(bits_per_item) * items;
  // For a power-of-two m, (h mod m) mod m/2 == h mod m/2: bit b of the
  // m-bit filter lands on b mod m/2 at half the size, so the upper half ORs
  // onto the lower one byte for byte. Stop at 64 bits, the
  // constructor's floor.
  size_t size = bits_.size();
  while (size > 8 && static_cast<double>(size / 2) * 8 >= needed_bits) {
    const size_t half = size / 2;
    for (size_t i = 0; i < half; ++i) {
      bits_[i] |= bits_[half + i];
    }
    size = half;
  }
  bits_.resize(size);
  bits_.shrink_to_fit();
}

double BloomFilter::FillRatio() const {
  if (bits_.empty()) {
    return 0.0;
  }
  uint64_t set = 0;
  for (char c : bits_) {
    set += std::popcount(static_cast<unsigned>(static_cast<uint8_t>(c)));
  }
  return static_cast<double>(set) / static_cast<double>(bits_.size() * 8);
}

void BloomFilter::WriteTo(ByteWriter& out) const {
  out.PutVarint(num_hashes_);
  out.PutLengthPrefixed(bits_);
}

Result<BloomFilter> BloomFilter::ReadFrom(ByteReader& in) {
  Result<uint64_t> k = in.ReadVarint();
  if (!k.ok()) {
    return k.status();
  }
  Result<std::string_view> bits = in.ReadLengthPrefixed();
  if (!bits.ok()) {
    return bits.status();
  }
  // A hostile manifest could declare billions of hash functions, turning
  // every MayContain() into an unbounded loop. Real filters use
  // bits_per_item * 0.69 hashes (single digits); 64 is far beyond any
  // legitimate configuration.
  if (*k > 64) {
    return CorruptData("bloom: implausible hash-function count");
  }
  BloomFilter f;
  f.num_hashes_ = static_cast<uint32_t>(*k);
  f.bits_ = std::string(*bits);
  return f;
}

}  // namespace loggrep
