#include "src/server/http.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "src/common/string_util.h"

namespace loggrep {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool TokenChar(char c) {
  // RFC 7230 tchar.
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

}  // namespace

bool HttpRequest::KeepAlive() const {
  const std::string_view connection = Header("connection");
  const std::string lowered = ToLower(connection);
  if (lowered.find("close") != std::string::npos) {
    return false;
  }
  if (version_minor == 0) {
    return lowered.find("keep-alive") != std::string::npos;
  }
  return true;
}

std::string_view HttpRequest::Header(std::string_view name) const {
  const auto it = headers.find(ToLower(name));
  return it == headers.end() ? std::string_view() : std::string_view(it->second);
}

std::string UrlDecode(std::string_view in, bool plus_is_space) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '+' && plus_is_space) {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < in.size()) {
      const int hi = HexDigit(in[i + 1]);
      const int lo = HexDigit(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string UrlEncode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '.' ||
        c == '_' || c == '~') {
      out.push_back(c);
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out.append(buf);
    }
  }
  return out;
}

void SplitTarget(std::string_view target, std::string* path,
                 std::map<std::string, std::string>* params) {
  params->clear();
  const size_t q = target.find('?');
  // The path portion decodes '+' literally (a '+' in a path is a plus).
  *path = UrlDecode(target.substr(0, q), /*plus_is_space=*/false);
  if (q == std::string_view::npos) {
    return;
  }
  std::string_view query = target.substr(q + 1);
  while (!query.empty()) {
    const size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        (*params)[UrlDecode(pair)] = "";
      } else {
        (*params)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
    if (amp == std::string_view::npos) {
      break;
    }
    query.remove_prefix(amp + 1);
  }
}

// ---------------------------------------------------------------------------
// HttpRequestParser
// ---------------------------------------------------------------------------

void HttpRequestParser::Fail(int http_status, std::string message) {
  state_ = State::kError;
  error_status_ = http_status;
  error_ = std::move(message);
}

size_t HttpRequestParser::Feed(std::string_view data) {
  size_t consumed = 0;
  while (consumed < data.size() && state_ == State::kNeedMore) {
    if (phase_ == Phase::kBody) {
      const size_t take = std::min(body_wanted_, data.size() - consumed);
      request_.body.append(data.data() + consumed, take);
      consumed += take;
      body_wanted_ -= take;
      if (body_wanted_ == 0) {
        state_ = State::kDone;
      }
      continue;
    }
    // Line phases: accumulate until '\n' (tolerating bare-LF line ends).
    const size_t nl = data.find('\n', consumed);
    const size_t take =
        (nl == std::string_view::npos ? data.size() : nl + 1) - consumed;
    line_buffer_.append(data.data() + consumed, take);
    consumed += take;

    const size_t limit = phase_ == Phase::kRequestLine
                             ? limits_.max_request_line_bytes
                             : limits_.max_header_bytes;
    if (line_buffer_.size() > limit) {
      Fail(phase_ == Phase::kRequestLine ? 414 : 431,
           phase_ == Phase::kRequestLine ? "request line too long"
                                         : "header line too long");
      break;
    }
    if (line_buffer_.empty() || line_buffer_.back() != '\n') {
      continue;  // partial line; wait for more bytes
    }
    std::string_view line = line_buffer_;
    line.remove_suffix(1);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    bool ok = true;
    if (phase_ == Phase::kRequestLine) {
      // RFC 7230 allows (and robust servers skip) empty lines before the
      // request line — a client's stray CRLF after a previous body.
      if (!line.empty()) {
        ok = FinishRequestLine(line);
      }
    } else {
      ok = FinishHeaderLine(line);
    }
    line_buffer_.clear();
    if (!ok) {
      break;
    }
  }
  return consumed;
}

bool HttpRequestParser::FinishRequestLine(std::string_view line) {
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    Fail(400, "malformed request line");
    return false;
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (method.empty() ||
      !std::all_of(method.begin(), method.end(), TokenChar)) {
    Fail(400, "malformed method");
    return false;
  }
  if (target.empty() || target[0] != '/') {
    Fail(400, "request target must be origin-form");
    return false;
  }
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
  } else {
    Fail(505, "unsupported HTTP version");
    return false;
  }
  request_.method.assign(method);
  request_.target.assign(target);
  SplitTarget(target, &request_.path, &request_.params);
  phase_ = Phase::kHeaders;
  return true;
}

bool HttpRequestParser::FinishHeaderLine(std::string_view line) {
  if (line.empty()) {
    BeginBody();
    return state_ != State::kError;
  }
  header_bytes_ += line.size();
  if (header_bytes_ > limits_.max_header_bytes) {
    Fail(431, "headers too large");
    return false;
  }
  if (request_.headers.size() >= limits_.max_headers) {
    Fail(431, "too many headers");
    return false;
  }
  if (line.front() == ' ' || line.front() == '\t') {
    // Obsolete line folding: deprecated by RFC 7230 and a classic smuggling
    // vector; reject instead of guessing.
    Fail(400, "obsolete header folding");
    return false;
  }
  const size_t colon = line.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    Fail(400, "malformed header line");
    return false;
  }
  const std::string_view name = line.substr(0, colon);
  if (!std::all_of(name.begin(), name.end(), TokenChar)) {
    Fail(400, "malformed header name");
    return false;
  }
  request_.headers[ToLower(name)] = std::string(Trim(line.substr(colon + 1)));
  return true;
}

void HttpRequestParser::BeginBody() {
  if (!request_.Header("transfer-encoding").empty()) {
    Fail(501, "transfer-encoding not supported");
    return;
  }
  const std::string_view length = request_.Header("content-length");
  if (length.empty()) {
    state_ = State::kDone;
    return;
  }
  uint64_t wanted = 0;
  if (!ParseDecimal(length, &wanted)) {
    Fail(400, "malformed content-length");
    return;
  }
  if (wanted > limits_.max_body_bytes) {
    Fail(413, "body too large");
    return;
  }
  body_wanted_ = static_cast<size_t>(wanted);
  if (body_wanted_ == 0) {
    state_ = State::kDone;
  } else {
    request_.body.reserve(body_wanted_);
    phase_ = Phase::kBody;
  }
}

void HttpRequestParser::Reset() {
  state_ = State::kNeedMore;
  phase_ = Phase::kRequestLine;
  line_buffer_.clear();
  header_bytes_ = 0;
  body_wanted_ = 0;
  request_ = HttpRequest();
  error_status_ = 0;
  error_.clear();
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 206: return "Partial Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out;
  out.reserve(response.body.size() + 256);
  char head[64];
  std::snprintf(head, sizeof(head), "HTTP/1.1 %d %s\r\n", response.status,
                HttpStatusReason(response.status));
  out.append(head);
  out.append("Content-Type: ").append(response.content_type).append("\r\n");
  char length[48];
  std::snprintf(length, sizeof(length), "Content-Length: %zu\r\n",
                response.body.size());
  out.append(length);
  out.append(keep_alive ? "Connection: keep-alive\r\n"
                        : "Connection: close\r\n");
  for (const auto& [name, value] : response.headers) {
    out.append(name).append(": ").append(value).append("\r\n");
  }
  out.append("\r\n");
  out.append(response.body);
  return out;
}

bool ParseResponseBytes(std::string_view data, ParsedResponse* out,
                        size_t* consumed, const HttpLimits& limits) {
  *out = ParsedResponse();
  *consumed = 0;
  const size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return false;
  }
  const std::string_view head = data.substr(0, head_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") {
    return false;
  }
  const size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) {
    return false;
  }
  out->status = std::atoi(std::string(status_line.substr(sp + 1, 3)).c_str());
  if (out->status < 100 || out->status > 599) {
    return false;
  }
  std::string_view rest = line_end == std::string_view::npos
                              ? std::string_view()
                              : head.substr(line_end + 2);
  while (!rest.empty()) {
    const size_t nl = rest.find("\r\n");
    const std::string_view line =
        nl == std::string_view::npos ? rest : rest.substr(0, nl);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos && colon > 0) {
      out->headers[ToLower(line.substr(0, colon))] =
          std::string(Trim(line.substr(colon + 1)));
    }
    if (nl == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(nl + 2);
  }
  uint64_t body_len = 0;
  const auto it = out->headers.find("content-length");
  if (it != out->headers.end() &&
      !ParseDecimal(it->second, &body_len, limits.max_body_bytes)) {
    return false;  // malformed or oversized
  }
  const size_t body_start = head_end + 4;
  if (data.size() < body_start + body_len) {
    return false;  // caller reads more and retries
  }
  out->body.assign(data.substr(body_start, body_len));
  *consumed = body_start + body_len;
  return true;
}

}  // namespace loggrep
