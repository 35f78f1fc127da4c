// Compression codec interface and registry.
//
// Three codecs are provided, standing in for the tools the paper's systems
// use (see DESIGN.md "Substitutions"):
//   GzipCodec()  - LZSS 32 KiB window + canonical Huffman  (gzip stand-in)
//   ZstdCodec()  - byte-aligned LZ, 64 KiB window, no entropy stage
//                  (zstd stand-in: fastest, moderate ratio)
//   XzCodec()    - LZ, 512 KiB window, lazy matching + adaptive binary
//                  range coder (LZMA stand-in: slowest, best ratio)
//
// Compressed blobs are self-describing: a one-byte codec id and the raw size
// precede the payload, so DecompressAny() can decode any blob.
#ifndef SRC_CODEC_CODEC_H_
#define SRC_CODEC_CODEC_H_

#include <string>
#include <string_view>

#include "src/common/result.h"

namespace loggrep {

// Decompression-bomb limits, enforced by Codec::Decompress before any
// allocation happens (a hostile blob may declare any raw size it likes):
//   * the declared raw size must not exceed kMaxDecompressedBytes, and
//   * it must not exceed max(kExpansionFloorBytes, payload * kMaxExpansionRatio).
// The ratio is deliberately generous — the range coder genuinely reaches
// ~40000x on 64 MiB of zeros (measured; rep0 matches cost a handful of
// direct bits each) — while still turning a 10-byte blob that declares an
// exabyte into a clean kCorruptData instead of a bad_alloc. Codecs
// additionally cap their upfront reserve at kDecompressReserveBytes so even
// an admitted declared size only pre-allocates a bounded amount; memory past
// that grows only as genuinely decoded bytes are produced.
inline constexpr uint64_t kMaxDecompressedBytes = 1ull << 30;    // 1 GiB
inline constexpr uint64_t kMaxExpansionRatio = 1ull << 17;       // 131072x
inline constexpr uint64_t kExpansionFloorBytes = 1ull << 20;     // 1 MiB
inline constexpr size_t kDecompressReserveBytes = size_t{1} << 24;  // 16 MiB

class Codec {
 public:
  virtual ~Codec() = default;

  virtual const char* name() const = 0;
  virtual uint8_t id() const = 0;

  // Container format: [u8 id][varint raw_size][payload].
  std::string Compress(std::string_view raw) const;
  Result<std::string> Decompress(std::string_view blob) const;

 protected:
  virtual std::string CompressPayload(std::string_view raw) const = 0;
  virtual Result<std::string> DecompressPayload(std::string_view payload,
                                                size_t raw_size) const = 0;
};

const Codec& GetGzipCodec();
const Codec& GetZstdCodec();
const Codec& GetXzCodec();

Result<const Codec*> CodecById(uint8_t id);

// Decodes a blob produced by any registered codec.
Result<std::string> DecompressAny(std::string_view blob);

}  // namespace loggrep

#endif  // SRC_CODEC_CODEC_H_
