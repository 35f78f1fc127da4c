// QuerySession: the paper's *refining mode* (§3, §6.3).
//
// An engineer debugging an incident grows a command incrementally:
//   "ERROR"  ->  "ERROR and aborted"  ->  "ERROR and aborted and code:20012"
// Beyond the engine's result cache (which only replays identical commands), a
// session recognizes when a new command strictly refines the previous one by
// appending "AND <term>" clauses, and then filters the previous hit list
// directly instead of re-running the whole locate pipeline: with entry-level
// containment semantics, appending a conjunct can only shrink the result set.
// A refined result therefore equals the full one, so the session stores it
// in the engine's result cache, where revisiting the command (through the
// session or the engine) finds it.
#ifndef SRC_CORE_SESSION_H_
#define SRC_CORE_SESSION_H_

#include <string>
#include <string_view>

#include "src/core/engine.h"
#include "src/query/query_cache.h"

namespace loggrep {

struct SessionQueryResult {
  QueryHits hits;
  // True when the result was narrowed from the previous command's hits
  // without touching the CapsuleBox.
  bool refined_incrementally = false;
  bool from_cache = false;
};

class QuerySession {
 public:
  // Borrows both; they must outlive the session.
  QuerySession(LogGrepEngine* engine, std::string_view box_bytes)
      : engine_(engine), box_(box_bytes), key_(BoxKey::FromBytes(box_bytes)) {}

  Result<SessionQueryResult> Query(std::string_view command);

  // Forget the refinement state and the engine's cached results (e.g. the
  // engineer starts a new hypothesis), so a reset can never serve pre-reset
  // hits. Opened boxes and Capsules stay warm. The bound box is unchanged:
  // Reset is "same data, new hypothesis".
  void Reset();

  // Point the session at different box bytes ("same hypothesis, new data"):
  // the serving layer calls this when the archive set rolls the shard a
  // session was following mid-session. Defined as Reset + swap: every
  // refinement/cache shortcut is dropped, so no post-rebind query can ever be
  // answered from the previous box's hits. The new view must outlive the
  // session, like the constructor argument.
  void Rebind(std::string_view box_bytes);

  std::string_view box() const { return box_; }

 private:
  LogGrepEngine* engine_;
  std::string_view box_;
  BoxKey key_;  // box_'s identity in the engine's caches, hashed once
  std::string last_command_;  // empty: nothing to refine
  QueryHits last_hits_;
};

}  // namespace loggrep

#endif  // SRC_CORE_SESSION_H_
