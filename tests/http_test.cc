// Unit tests for the HTTP message layer (src/server/http.h) and the shared
// JSON helpers (src/common/json.h) — the byte-level half of loggrepd,
// exercised here without any sockets. The malformed-input cases mirror the
// fuzz_http target's contract: hostile bytes produce kError with a sane
// HTTP status, never a crash.
#include "src/server/http.h"

#include <gtest/gtest.h>

#include <string>

#include "src/common/json.h"

namespace loggrep {
namespace {

HttpRequestParser::State FeedAll(HttpRequestParser* parser,
                                 std::string_view bytes,
                                 size_t* consumed = nullptr) {
  const size_t used = parser->Feed(bytes);
  if (consumed != nullptr) {
    *consumed = used;
  }
  return parser->state();
}

TEST(HttpParser, ParsesSimpleGet) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            HttpRequestParser::State::kDone);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/healthz");
  EXPECT_EQ(request.Header("host"), "x");
  EXPECT_TRUE(request.KeepAlive());
  EXPECT_TRUE(request.body.empty());
}

TEST(HttpParser, ParsesPostBodyAndParams) {
  HttpRequestParser parser;
  const std::string bytes =
      "POST /query?archive=a%2Fb&degrade=0&deadline_ms=250 HTTP/1.1\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "hello AND x";
  ASSERT_EQ(FeedAll(&parser, bytes), HttpRequestParser::State::kDone);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/query");
  EXPECT_EQ(request.params.at("archive"), "a/b");
  EXPECT_EQ(request.params.at("degrade"), "0");
  EXPECT_EQ(request.params.at("deadline_ms"), "250");
  EXPECT_EQ(request.body, "hello AND x");
}

TEST(HttpParser, IncrementalOneByteAtATime) {
  const std::string bytes =
      "POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  HttpRequestParser parser;
  for (const char c : bytes) {
    ASSERT_NE(parser.state(), HttpRequestParser::State::kError);
    parser.Feed(std::string_view(&c, 1));
  }
  ASSERT_EQ(parser.state(), HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().body, "body");
}

TEST(HttpParser, PipelinedKeepAliveRequestsSplitCorrectly) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
  const std::string wire = first + second;

  HttpRequestParser parser;
  size_t consumed = 0;
  ASSERT_EQ(FeedAll(&parser, wire, &consumed),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(consumed, first.size()) << "must stop at the request boundary";
  EXPECT_EQ(parser.request().path, "/a");
  EXPECT_TRUE(parser.request().KeepAlive());

  parser.Reset();
  ASSERT_EQ(FeedAll(&parser, std::string_view(wire).substr(consumed)),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().path, "/b");
  EXPECT_FALSE(parser.request().KeepAlive());
}

TEST(HttpParser, TruncatedBodyStaysNeedMore) {
  HttpRequestParser parser;
  EXPECT_EQ(FeedAll(&parser,
                    "POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\nhal"),
            HttpRequestParser::State::kNeedMore);
  // The rest arrives later; nothing was lost.
  std::string rest(97, 'x');
  EXPECT_EQ(FeedAll(&parser, rest), HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().body.size(), 100u);
}

TEST(HttpParser, MalformedRequestLines) {
  for (const char* bad : {
           "GARBAGE\r\n\r\n",                  // no spaces
           "GET /x\r\n\r\n",                   // missing version
           "GET  HTTP/1.1\r\n\r\n",            // empty target
           "GET x HTTP/1.1\r\n\r\n",           // target not origin-form
           "G@T /x HTTP/1.1\r\n\r\n",          // bad method char
           "GET /x HTTP/2.0\r\n\r\n",          // unsupported version
           "GET /x HTTP/9\r\n\r\n",            // nonsense version
       }) {
    HttpRequestParser parser;
    EXPECT_EQ(FeedAll(&parser, bad), HttpRequestParser::State::kError)
        << "input: " << bad;
    EXPECT_GE(parser.error_status(), 400) << "input: " << bad;
  }
}

TEST(HttpParser, MalformedHeaders) {
  struct Case {
    const char* bytes;
    int status;
  };
  for (const Case& c : {
           Case{"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
           Case{"GET / HTTP/1.1\r\n: empty-name\r\n\r\n", 400},
           Case{"GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n", 400},
           Case{"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", 400},
           Case{"POST / HTTP/1.1\r\nContent-Length: huge\r\n\r\n", 400},
           Case{"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
           Case{"POST / HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n", 400},
           Case{"POST / HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n", 400},
           Case{"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
           // Past UINT64_MAX: not a representable length, so malformed.
           Case{"POST / HTTP/1.1\r\nContent-Length: 18446744073709551616"
                "\r\n\r\n",
                400},
           // Decimal lengths past the body limit are oversize, however long.
           Case{"POST / HTTP/1.1\r\nContent-Length: 9999999999999\r\n\r\n",
                413},
           Case{"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n", 413},
           Case{"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
       }) {
    HttpRequestParser parser;
    EXPECT_EQ(FeedAll(&parser, c.bytes), HttpRequestParser::State::kError)
        << "input: " << c.bytes;
    EXPECT_EQ(parser.error_status(), c.status) << "input: " << c.bytes;
  }
}

TEST(HttpParser, OversizedRequestLineRejected414) {
  HttpLimits limits;
  limits.max_request_line_bytes = 64;
  HttpRequestParser parser(limits);
  const std::string long_line = "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(FeedAll(&parser, long_line), HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(HttpParser, OversizedHeadersRejected431) {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  HttpRequestParser parser(limits);
  std::string bytes = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 10; ++i) {
    bytes += "X-Filler-" + std::to_string(i) + ": " + std::string(40, 'y') +
             "\r\n";
  }
  bytes += "\r\n";
  EXPECT_EQ(FeedAll(&parser, bytes), HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, TooManyHeadersRejected) {
  HttpLimits limits;
  limits.max_headers = 4;
  HttpRequestParser parser(limits);
  std::string bytes = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 8; ++i) {
    bytes += "H" + std::to_string(i) + ": v\r\n";
  }
  bytes += "\r\n";
  EXPECT_EQ(FeedAll(&parser, bytes), HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, BodyOverLimitRejected413) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  HttpRequestParser parser(limits);
  EXPECT_EQ(FeedAll(&parser,
                    "POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, BareLfLineEndingsAccepted) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser, "GET /x HTTP/1.1\nHost: y\n\n"),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().Header("host"), "y");
}

TEST(HttpParser, LeadingEmptyLinesSkipped) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser, "\r\n\r\nGET /x HTTP/1.1\r\n\r\n"),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().path, "/x");
}

TEST(HttpParser, Http10DefaultsToClose) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser, "GET / HTTP/1.0\r\n\r\n"),
            HttpRequestParser::State::kDone);
  EXPECT_FALSE(parser.request().KeepAlive());
  parser.Reset();
  ASSERT_EQ(FeedAll(&parser,
                    "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            HttpRequestParser::State::kDone);
  EXPECT_TRUE(parser.request().KeepAlive());
}

TEST(Url, DecodeAndEncodeRoundTrip) {
  EXPECT_EQ(UrlDecode("a%20b+c"), "a b c");
  EXPECT_EQ(UrlDecode("a+b", /*plus_is_space=*/false), "a+b");
  EXPECT_EQ(UrlDecode("100%"), "100%");      // invalid escape kept verbatim
  EXPECT_EQ(UrlDecode("%zz"), "%zz");
  const std::string nasty = "a b&c=d?e/f\"g\n100%";
  EXPECT_EQ(UrlDecode(UrlEncode(nasty), /*plus_is_space=*/false), nasty);
}

TEST(Http, ResponseSerializeParseRoundTrip) {
  HttpResponse response;
  response.status = 206;
  response.body = "{\"complete\":false}";
  response.headers.emplace_back("Retry-After", "2");
  const std::string wire = SerializeResponse(response, /*keep_alive=*/true);

  ParsedResponse parsed;
  size_t consumed = 0;
  ASSERT_TRUE(ParseResponseBytes(wire, &parsed, &consumed));
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(parsed.status, 206);
  EXPECT_EQ(parsed.body, response.body);
  EXPECT_EQ(parsed.headers.at("retry-after"), "2");
  EXPECT_EQ(parsed.headers.at("connection"), "keep-alive");
}

TEST(Http, ParseResponseNeedsWholeBody) {
  const std::string wire =
      SerializeResponse(HttpResponse{200, {}, "text/plain", "0123456789"},
                        false);
  ParsedResponse parsed;
  size_t consumed = 0;
  EXPECT_FALSE(
      ParseResponseBytes(std::string_view(wire).substr(0, wire.size() - 1),
                         &parsed, &consumed));
  EXPECT_TRUE(ParseResponseBytes(wire, &parsed, &consumed));
  EXPECT_EQ(parsed.body, "0123456789");
}

// A client must not read a malformed Content-Length as some other length
// (strtoull read "abc" as 0 and "12abc" as 12).
TEST(Http, ParseResponseRejectsNonDecimalContentLength) {
  for (const char* bad : {"abc", "1e3", "12abc", "-1", "",
                          "18446744073709551616"}) {
    const std::string wire =
        std::string("HTTP/1.1 200 OK\r\nContent-Length: ") + bad +
        "\r\n\r\n0123456789ab";
    ParsedResponse parsed;
    size_t consumed = 0;
    EXPECT_FALSE(ParseResponseBytes(wire, &parsed, &consumed))
        << "\"" << bad << "\"";
  }
  const std::string good =
      "HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n0123456789ab";
  ParsedResponse parsed;
  size_t consumed = 0;
  ASSERT_TRUE(ParseResponseBytes(good, &parsed, &consumed));
  EXPECT_EQ(parsed.body, "0123456789ab");
}

// --- JSON ------------------------------------------------------------------

TEST(Json, ParsesDocumentShapes) {
  auto doc = ParseJson(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"f":[]}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Get("a").AsUint(), 1u);
  EXPECT_DOUBLE_EQ(doc->Get("b").AsDouble(), -2.5);
  EXPECT_EQ(doc->Get("c").AsString(), "x\ny");
  ASSERT_EQ(doc->Get("d").AsArray().size(), 3u);
  EXPECT_TRUE(doc->Get("d").AsArray()[0].AsBool());
  EXPECT_TRUE(doc->Get("e").Get("f").is_array());
  EXPECT_TRUE(doc->Get("missing").is_null());
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "line1\nline2\t\"quoted\" \\ \x01 100%";
  std::string doc = "{\"k\":";
  AppendJsonString(&doc, nasty);
  doc += "}";
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("k").AsString(), nasty);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "[1]x", "\"unterm",
        "{\"a\":\"\\u12\"}", "nan", "1e999"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "input: " << bad;
  }
}

TEST(Json, DepthCapStopsHostileNesting) {
  const std::string deep(10000, '[');
  EXPECT_FALSE(ParseJson(deep).ok());
}

}  // namespace
}  // namespace loggrep
