// Query result types of the paper's query cache (§3). The cache itself is
// the result entry kind of BoxCache (src/query/box_cache.h), keyed by
// (box identity, command text).
#ifndef SRC_QUERY_QUERY_CACHE_H_
#define SRC_QUERY_QUERY_CACHE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/query/locator.h"  // LocatorStats

namespace loggrep {

// One query hit: (global line number, reconstructed line text). Line numbers
// are 64-bit end-to-end: an archive past ~4 billion lines must not silently
// wrap its global line numbers.
using QueryHits = std::vector<std::pair<uint64_t, std::string>>;

// A memoized query result: the hits plus the cost of the execution that
// produced them, so a cache hit reports what the original execution cost
// instead of a zeroed locator.
struct CachedQuery {
  QueryHits hits;
  LocatorStats locator;
};

}  // namespace loggrep

#endif  // SRC_QUERY_QUERY_CACHE_H_
