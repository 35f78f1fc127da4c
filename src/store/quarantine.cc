#include "src/store/quarantine.h"

#include <algorithm>
#include <map>

#include "src/common/json.h"
#include "src/store/fs_util.h"

namespace loggrep {

// ---------------------------------------------------------------------------
// QuarantineSet
// ---------------------------------------------------------------------------

const QuarantineEntry* QuarantineSet::Find(uint32_t seq) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), seq,
      [](const QuarantineEntry& e, uint32_t s) { return e.seq < s; });
  if (it == entries.end() || it->seq != seq) {
    return nullptr;
  }
  return &*it;
}

QuarantineEntry* QuarantineSet::Find(uint32_t seq) {
  return const_cast<QuarantineEntry*>(
      static_cast<const QuarantineSet*>(this)->Find(seq));
}

bool QuarantineSet::Add(QuarantineEntry entry) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), entry.seq,
      [](const QuarantineEntry& e, uint32_t s) { return e.seq < s; });
  if (it != entries.end() && it->seq == entry.seq) {
    // Refresh: keep the first recorded error (it names the original cause)
    // and never un-tombstone via a mere re-failure.
    if (it->code.empty()) {
      it->code = std::move(entry.code);
    }
    if (it->error.empty()) {
      it->error = std::move(entry.error);
    }
    if (it->quarantined_unix == 0) {
      it->quarantined_unix = entry.quarantined_unix;
    }
    return false;
  }
  entries.insert(it, std::move(entry));
  return true;
}

bool QuarantineSet::Remove(uint32_t seq) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), seq,
      [](const QuarantineEntry& e, uint32_t s) { return e.seq < s; });
  if (it == entries.end() || it->seq != seq) {
    return false;
  }
  entries.erase(it);
  return true;
}

size_t QuarantineSet::tombstoned_count() const {
  size_t n = 0;
  for (const QuarantineEntry& e : entries) {
    if (e.tombstoned) {
      ++n;
    }
  }
  return n;
}

std::string QuarantinePath(const std::string& dir) {
  return dir + "/quarantine.json";
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

std::string SerializeQuarantineJson(const QuarantineSet& set) {
  std::string out = "{\"version\":1,\"blocks\":[";
  bool first = true;
  for (const QuarantineEntry& e : set.entries) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out += "{\"seq\":" + std::to_string(e.seq) + ",\"code\":";
    AppendJsonString(&out, e.code);
    out += ",\"error\":";
    AppendJsonString(&out, e.error);
    out += ",\"tombstoned\":";
    out += e.tombstoned ? "true" : "false";
    out += ",\"quarantined_unix\":" + std::to_string(e.quarantined_unix);
    out.push_back('}');
  }
  out += "]}\n";
  return out;
}

// Unknown keys are skipped (forward compatibility for later writers); a
// known key of the wrong type is corrupt. Integers must be plain unsigned
// literals, as the writer emits them.
Result<QuarantineSet> ParseQuarantineJson(std::string_view json) {
  const auto corrupt = [](const std::string& what) {
    return Status(StatusCode::kCorruptData, "quarantine.json: " + what);
  };
  Result<JsonValue> doc = ParseJson(json);
  if (!doc.ok()) {
    return corrupt(doc.status().message());
  }
  if (!doc->is_object()) {
    return corrupt("expected top-level object");
  }
  const std::map<std::string, JsonValue>& top = doc->AsObject();
  const auto version = top.find("version");
  if (version != top.end() &&
      !(version->second.is_uint() && version->second.AsUint() == 1)) {
    return corrupt("unsupported version");
  }
  const auto blocks = top.find("blocks");
  if (blocks == top.end() || !blocks->second.is_array()) {
    return corrupt("missing blocks array");
  }
  QuarantineSet set;
  for (const JsonValue& item : blocks->second.AsArray()) {
    if (!item.is_object()) {
      return corrupt("block entry must be an object");
    }
    QuarantineEntry entry;
    bool saw_seq = false;
    for (const auto& [field, v] : item.AsObject()) {
      bool ok = true;
      if (field == "seq") {
        ok = v.is_uint() && v.AsUint() <= UINT32_MAX;
        entry.seq = static_cast<uint32_t>(v.AsUint());
        saw_seq = true;
      } else if (field == "code" || field == "error") {
        ok = v.kind() == JsonValue::Kind::kString;
        (field == "code" ? entry.code : entry.error) = v.AsString();
      } else if (field == "tombstoned") {
        ok = v.kind() == JsonValue::Kind::kBool;
        entry.tombstoned = v.AsBool();
      } else if (field == "quarantined_unix") {
        ok = v.is_uint();
        entry.quarantined_unix = v.AsUint();
      }
      if (!ok) {
        return corrupt("bad " + field);
      }
    }
    if (!saw_seq) {
      return corrupt("block entry missing seq");
    }
    set.Add(std::move(entry));
  }
  return set;
}

// ---------------------------------------------------------------------------
// Sidecar I/O
// ---------------------------------------------------------------------------

Result<QuarantineSet> LoadQuarantine(const std::string& dir, StorageEnv* env) {
  StorageEnv* e = EnvOrDefault(env);
  Result<std::string> bytes = ReadFileBytes(QuarantinePath(dir), e);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return QuarantineSet{};  // healthy common case: no sidecar at all
    }
    return bytes.status();
  }
  return ParseQuarantineJson(*bytes);
}

Status SaveQuarantine(const std::string& dir, const QuarantineSet& set,
                      StorageEnv* env) {
  StorageEnv* e = EnvOrDefault(env);
  const std::string path = QuarantinePath(dir);
  if (set.empty()) {
    Status s = e->RemoveFile(path);
    if (!s.ok() && s.code() == StatusCode::kNotFound) {
      return OkStatus();
    }
    return s;
  }
  return WriteFileAtomic(path, SerializeQuarantineJson(set), e);
}

// ---------------------------------------------------------------------------
// Partial results
// ---------------------------------------------------------------------------

uint64_t PartialReport::lines_missing() const {
  uint64_t n = 0;
  for (const BlockQueryFailure& f : failures) {
    n += f.line_count;
  }
  return n;
}

std::string PartialReport::Render() const {
  if (failures.empty()) {
    return "complete";
  }
  std::string out = "partial: " + std::to_string(failures.size()) +
                    " block(s) unavailable, " +
                    std::to_string(lines_missing()) + " line(s) missing\n";
  for (const BlockQueryFailure& f : failures) {
    out += "  block " + std::to_string(f.seq) + " lines [" +
           std::to_string(f.first_line) + "," +
           std::to_string(f.first_line + f.line_count) + "): " + f.error;
    if (f.tombstoned) {
      out += " [tombstoned]";
    } else if (f.newly_quarantined) {
      out += " [newly quarantined]";
    } else {
      out += " [quarantined]";
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace loggrep
