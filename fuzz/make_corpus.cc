// Seed-corpus generator: writes real archives, boxes, codec blobs and
// manifests into fuzz/corpus/<target>/ so every fuzz target starts from
// structurally valid inputs (coverage deep inside the decoders) instead of
// spending its budget rediscovering magic bytes.
//
//   make_corpus <corpus-root>
//
// Deterministic: re-running produces identical files (content-hash names),
// so the committed corpus stays stable.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/core/engine.h"
#include "src/store/fs_util.h"
#include "src/store/log_archive.h"
#include "src/store/quarantine.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

namespace {

namespace fs = std::filesystem;
using namespace loggrep;

void WriteSeed(const std::string& dir, const std::string& bytes) {
  fs::create_directories(dir);
  char name[64];
  std::snprintf(name, sizeof(name), "seed-%016llx",
                static_cast<unsigned long long>(Fnv1a64(bytes)));
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string SampleText(uint64_t seed, size_t lines) {
  DatasetSpec spec = AllDatasets()[seed % AllDatasets().size()];
  spec.seed = seed | 1;
  return LogGenerator(spec).GenerateLines(lines);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <corpus-root>\n");
    return 2;
  }
  const std::string root = argv[1];

  // --- codec: container blobs from all three codecs, varied content -------
  {
    const std::string dir = root + "/codec";
    const std::vector<std::string> payloads = {
        "", "x", std::string(512, '\0'), SampleText(1, 20),
        std::string("abababababababab")};
    for (const Codec* codec :
         {&GetXzCodec(), &GetGzipCodec(), &GetZstdCodec()}) {
      for (const std::string& payload : payloads) {
        WriteSeed(dir, codec->Compress(payload));
      }
    }
  }

  // --- bitstream: compressed payloads minus the container header ----------
  {
    const std::string dir = root + "/bitstream";
    for (uint64_t s = 1; s <= 3; ++s) {
      const std::string blob = GetXzCodec().Compress(SampleText(s, 30));
      WriteSeed(dir, blob.substr(std::min<size_t>(blob.size(), 3)));
    }
    WriteSeed(dir, std::string("\x05\x01\x02\x03\x04\x05hello", 11));
  }

  // --- parser: raw log text in several dataset shapes ---------------------
  {
    const std::string dir = root + "/parser";
    for (uint64_t s = 1; s <= 4; ++s) {
      WriteSeed(dir, SampleText(s * 7, 25));
    }
    WriteSeed(dir, "no structure here\nat all\n\n");
    WriteSeed(dir, std::string("\x00\x01\x02 binary-ish line\n", 21));
  }

  // --- capsule_box: serialized boxes from several engine configs ----------
  {
    const std::string dir = root + "/capsule_box";
    const std::string text = SampleText(11, 40);
    {
      LogGrepEngine full;
      WriteSeed(dir, full.CompressBlock(text));
    }
    {
      EngineOptions o;
      o.static_only = true;
      LogGrepEngine sp(o);
      WriteSeed(dir, sp.CompressBlock(text));
    }
    {
      EngineOptions o;
      o.use_fixed = false;
      o.codec = &GetGzipCodec();
      LogGrepEngine unpadded(o);
      WriteSeed(dir, unpadded.CompressBlock(text));
    }
    {
      LogGrepEngine full;
      WriteSeed(dir, full.CompressBlock(""));  // empty block
    }
  }

  // --- manifest: real multi-block archive manifests -----------------------
  // Block filters are folded to their distinct shingles (power-of-two
  // sizes); the last manifest adds a 600-line block whose filter folds many
  // times. Seeds committed before filters were folded carry legacy
  // non-power-of-two filters and stay in the corpus next to these.
  {
    const std::string dir = root + "/manifest";
    const std::string scratch =
        (fs::temp_directory_path() / "loggrep-make-corpus").string();
    fs::remove_all(scratch);
    auto archive = LogArchive::Create(scratch);
    if (!archive.ok()) {
      std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
      return 1;
    }
    for (uint64_t b = 0; b < 4; ++b) {
      const std::string text = SampleText(b + 21, b < 3 ? 30 : 600);
      if (Status s = archive->AppendBlock(text); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      auto manifest = ReadFileBytes(scratch + "/archive.manifest");
      if (manifest.ok()) {
        WriteSeed(dir, *manifest);  // 1- to 4-block manifests
      }
    }
    fs::remove_all(scratch);

    // Quarantine sidecars (fuzz_manifest feeds every input to both
    // parsers): an empty one and one with escapes, a tombstone and a
    // 64-bit timestamp.
    QuarantineSet sidecar;
    WriteSeed(dir, SerializeQuarantineJson(sidecar));
    sidecar.Add({2, "IO_ERROR", "read \"block-2.lgc\"\n\tEIO", false,
                 1754000000});
    sidecar.Add({5, "CORRUPT_DATA", std::string("bad\0hash", 8), true,
                 UINT64_MAX});
    WriteSeed(dir, SerializeQuarantineJson(sidecar));
    // Numbers outside the RFC 8259 grammar: a leading zero, a plus sign and
    // a bare fraction. The parser must reject the sidecar as corrupt data.
    WriteSeed(dir,
              "{\"version\":1,\"blocks\":[{\"seq\":01,\"code\":\"IO_ERROR\","
              "\"error\":\"x\",\"tombstoned\":false,"
              "\"quarantined_unix\":+1}],\"generation\":.5}");
  }

  // --- http: request/response/json bytes behind the 1-byte chunk selector
  // fuzz_http consumes (first byte picks the drip-feed size). ---------------
  {
    const std::string dir = root + "/http";
    auto with_chunk = [](char chunk, std::string msg) {
      return std::string(1, chunk) + std::move(msg);
    };
    WriteSeed(dir, with_chunk(3, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
    WriteSeed(dir,
              with_chunk(1,
                         "POST /query?archive=arch&degrade=0 HTTP/1.1\r\n"
                         "Host: x\r\nContent-Length: 5\r\n\r\nERROR"));
    WriteSeed(dir,
              with_chunk(7,
                         "GET /metrics HTTP/1.1\r\n\r\n"
                         "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"));
    WriteSeed(dir,
              with_chunk(2,
                         "HTTP/1.1 206 Partial Content\r\n"
                         "content-type: application/json\r\n"
                         "retry-after: 1\r\ncontent-length: 2\r\n\r\n{}"));
    WriteSeed(dir,
              with_chunk(5,
                         "{\"complete\":false,\"hits\":[[1,\"a\"],[9,\"b\"]],"
                         "\"stats\":{\"cache_hits\":2,\"blocks_from_cache\":1},"
                         "\"partial\":{\"lines_missing\":120}}"));
    WriteSeed(dir, with_chunk(4, "BOGUS \x01 HTTP/9.9\r\nX:\r\n\r\n"));
  }

  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}
