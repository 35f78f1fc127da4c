#include "src/core/session.h"

#include <cctype>

#include "src/query/line_match.h"
#include "src/query/query_parser.h"

namespace loggrep {
namespace {

// If `command` == `previous` + " and <suffix...>" (case-insensitive "and"),
// returns the appended suffix ("<suffix...>"), else empty.
std::string_view RefinementSuffix(std::string_view previous,
                                  std::string_view command) {
  if (previous.empty() || command.size() <= previous.size() + 5 ||
      command.substr(0, previous.size()) != previous) {
    return {};
  }
  std::string_view rest = command.substr(previous.size());
  std::string separator(rest.substr(0, 5));
  for (char& c : separator) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return separator == " and " ? rest.substr(5) : std::string_view();
}

// Parses an appended clause that is a pure AND chain, the only kind under
// which the incremental path is sound ("a AND x AND y" refines "a", but
// "a OR x" does not); null for anything else.
std::unique_ptr<QueryExpr> ParsePureAndChain(std::string_view suffix) {
  Result<std::unique_ptr<QueryExpr>> parsed = ParseQuery(suffix);
  if (!parsed.ok()) {
    return nullptr;
  }
  for (const QueryExpr* node = parsed->get(); node != nullptr;
       node = node->left.get()) {
    if (node->kind == QueryExpr::Kind::kTerm) {
      break;
    }
    if (node->kind != QueryExpr::Kind::kAnd) {
      return nullptr;
    }
  }
  return std::move(*parsed);
}

}  // namespace

Result<SessionQueryResult> QuerySession::Query(std::string_view command) {
  SessionQueryResult out;
  const std::unique_ptr<QueryExpr> appended =
      ParsePureAndChain(RefinementSuffix(last_command_, command));
  // A revisited refinement is answered from the cache, not re-filtered.
  std::optional<QueryResult> cached =
      appended != nullptr ? engine_->LookupResult(key_, command) : std::nullopt;
  if (cached.has_value()) {
    out.hits = std::move(cached->hits);
    out.from_cache = true;
  } else if (appended != nullptr) {
    out.refined_incrementally = true;
    LineMatcher matcher;
    for (const auto& [line, text] : last_hits_) {
      if (matcher.MatchesQuery(text, *appended)) {
        out.hits.emplace_back(line, text);
      }
    }
    engine_->CacheResult(key_, command, out.hits);
  } else {
    Result<QueryResult> full = engine_->QueryBox(
        key_, [this] { return Result<std::string>(std::string(box_)); },
        command);
    if (!full.ok()) {
      return full.status();
    }
    out.hits = std::move(full->hits);
    out.from_cache = full->from_cache;
  }
  last_command_.assign(command.data(), command.size());
  last_hits_ = out.hits;
  return out;
}

void QuerySession::Reset() {
  last_command_.clear();
  last_hits_.clear();
  engine_->ClearCache();
}

void QuerySession::Rebind(std::string_view box_bytes) {
  Reset();
  box_ = box_bytes;
  key_ = BoxKey::FromBytes(box_bytes);
}

}  // namespace loggrep
