// Near-line debugging session (the paper's motivating workflow, §1-§2):
// an engineer investigating a production incident narrows down a compressed
// log block with successively refined queries. LogGrep's refining mode keeps
// a Query Cache so revisiting earlier commands is free.
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/timer.h"
#include "src/core/engine.h"
#include "src/core/session.h"
#include "src/workload/datasets.h"
#include "src/workload/loggen.h"

int main() {
  using namespace loggrep;

  // The block under investigation: a request-serving service (Log A style)
  // with rare REQ_ST_CLOSED aborts hiding in ~10 MB of INFO noise.
  const DatasetSpec* spec = FindDataset("Log A");
  const std::string raw = LogGenerator(*spec).Generate(8 * 1024 * 1024);
  LogGrepEngine engine;
  std::printf("compressing the incident block (%zu bytes)...\n", raw.size());
  WallTimer compress_timer;
  const std::string box = engine.CompressBlock(raw);
  std::printf("done in %.2fs -> %zu bytes\n\n", compress_timer.ElapsedSeconds(),
              box.size());

  // The refining session: each step narrows the previous one.
  const std::vector<std::pair<std::string, std::string>> steps = {
      {"1. all errors", "ERROR"},
      {"2. only aborted requests", "ERROR and aborted"},
      {"3. closed-state aborts", "ERROR and aborted and state:REQ_ST_CLOSED"},
      {"4. a specific error code",
       "ERROR and aborted and state:REQ_ST_CLOSED and code:20012"},
      {"2. only aborted requests (revisited)", "ERROR and aborted"},
  };

  QuerySession session(&engine, box);
  for (const auto& [label, command] : steps) {
    WallTimer timer;
    auto result = session.Query(command);
    const double ms = timer.ElapsedSeconds() * 1000;
    if (!result.ok()) {
      std::printf("query failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const char* how = result->from_cache ? "  [query cache]"
                      : result->refined_incrementally
                          ? "  [incremental refinement]"
                          : "";
    std::printf("%-45s %6zu hits in %7.2f ms%s\n", label.c_str(),
                result->hits.size(), ms, how);
    if (result->hits.size() <= 3) {
      for (const auto& [line, text] : result->hits) {
        std::printf("    line %llu: %s\n",
                    static_cast<unsigned long long>(line), text.c_str());
      }
    }
  }

  const BoxCacheStats cache = engine.box_cache()->Stats();
  std::printf("\nresult cache: %llu hits / %llu misses over the session\n",
              static_cast<unsigned long long>(cache.result_hits),
              static_cast<unsigned long long>(cache.result_misses));
  return 0;
}
