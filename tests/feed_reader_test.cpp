// The feed line protocol's reader: parse_submit_line field bounds, the
// shared LineReader behind FdLineFeed and TcpFeed (its bounded error log,
// one test run over both transports), and a deterministic mutation fuzzer
// over chunked streams.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "serve/feed.h"
#include "util/rng.h"
#include "workload/job.h"
#include "workload/swf.h"

namespace jsched {
namespace {

using serve::LineReader;
using serve::ParseResult;
using serve::SubmitRecord;

auto fields(const SubmitRecord& r) {
  return std::make_tuple(r.submit, r.nodes, r.runtime, r.estimate, r.user);
}

void expect_same_records(const std::vector<SubmitRecord>& got,
                         const std::vector<SubmitRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(fields(got[i]), fields(want[i])) << "record " << i;
  }
}

SubmitRecord record(Time submit, int nodes, Duration runtime,
                    Duration estimate, std::int32_t user = 0) {
  return SubmitRecord{submit, nodes, runtime, estimate, user};
}

TEST(FeedReader, ParseRejectsOutOfRangeFields) {
  // Each of these used to be narrowed silently: nodes and user wrapped to
  // 1, and the huge submit/runtime pair overflowed Time downstream.
  SubmitRecord r;
  std::string error;
  EXPECT_EQ(serve::parse_submit_line("@0 4294967297 10 10", r, &error),
            ParseResult::kError);
  EXPECT_NE(error.find("nodes"), std::string::npos);
  EXPECT_EQ(serve::parse_submit_line("@0 1 10 10 4294967297", r, &error),
            ParseResult::kError);
  EXPECT_NE(error.find("user"), std::string::npos);
  EXPECT_EQ(serve::parse_submit_line(
                "@9223372036854775000 1 9223372036854775000 5", r, &error),
            ParseResult::kError);
  EXPECT_NE(error.find("submit"), std::string::npos);

  // The bounds themselves are accepted.
  ASSERT_EQ(serve::parse_submit_line("@1000000000000000 2000000000 "
                                     "1000000000000000 1000000000000000 "
                                     "-2000000000",
                                     r),
            ParseResult::kRecord);
  EXPECT_EQ(fields(r), fields(record(kMaxTimeField, 2'000'000'000,
                                     kMaxTimeField, kMaxTimeField,
                                     -2'000'000'000)));
}

TEST(FeedReader, ErrorLogIsBounded) {
  // 100 malformed lines over two consume() calls, with valid lines among
  // them: every error is counted, only the first kMaxSamples are logged,
  // followed by one line saying the rest are suppressed.
  const std::size_t logged = workload::SwfParseReport::kMaxSamples;
  LineReader reader;
  std::string first;
  std::string second;
  for (int i = 0; i < 50; ++i) {
    first += "junk " + std::to_string(i) + "\n";
    second += "@" + std::to_string(i) + " 1 10 10\nmore junk\n";
  }
  testing::internal::CaptureStderr();
  reader.consume(first, false);
  reader.consume(second, false);
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_EQ(reader.parse_errors(), 100u);
  std::vector<std::string> lines;
  for (std::size_t at = 0, nl; (nl = log.find('\n', at)) != std::string::npos;
       at = nl + 1) {
    lines.push_back(log.substr(at, nl - at));
  }
  ASSERT_EQ(lines.size(), logged + 1) << log;
  for (std::size_t i = 0; i < logged; ++i) {
    EXPECT_EQ(lines[i].rfind("feed: ", 0), 0u) << lines[i];
  }
  EXPECT_EQ(lines.back(), "feed: further errors suppressed");
  std::vector<SubmitRecord> out;
  reader.poll(kTimeInfinity, out, true);
  EXPECT_EQ(out.size(), 50u);
}

// ------------------------------------------------- one test, two transports

enum class Transport { kPipe, kTcp };

struct Delivery {
  std::vector<SubmitRecord> records;
  std::size_t parse_errors = 0;
};

/// Poll `feed` until it ends, or — for a script without `end`, which a
/// TCP feed cannot see the end of — until `want` records arrived.
template <typename LineFeed>
void poll_until_done(LineFeed& feed, bool has_end, std::size_t want,
                     Delivery& out) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (feed.poll(kTimeInfinity, out.records)) {
    if (!has_end && out.records.size() >= want) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "feed stalled";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.parse_errors = feed.parse_errors();
}

/// Send `bytes` over `transport`, close the sending side, and collect what
/// the feed delivers.
Delivery deliver(Transport transport, const std::string& bytes, bool has_end,
                 std::size_t want) {
  Delivery out;
  if (transport == Transport::kPipe) {
    int fds[2];
    EXPECT_EQ(pipe(fds), 0);
    EXPECT_EQ(write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    close(fds[1]);
    serve::FdLineFeed feed(fds[0], /*tail=*/false, /*close_fd=*/true);
    poll_until_done(feed, has_end, want, out);
    return out;
  }
  serve::TcpFeed feed(0);
  const int client = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(feed.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(write(client, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  close(client);
  poll_until_done(feed, has_end, want, out);
  return out;
}

class LineProtocolFeed : public ::testing::TestWithParam<Transport> {};

TEST_P(LineProtocolFeed, EndSentinelDropsLaterLines) {
  // CRLF endings, a comment, a malformed line, and lines after `end` —
  // including a record and a malformed line, neither of which may count.
  const std::string script =
      "# header\r\n"
      "@0 2 10 10\r\n"
      "this is not a job\r\n"
      "@5 1 20 30 7\r\n"
      "3 4 5\n"
      "end\r\n"
      "@9 1 1 1\n"
      "not a job either\n";
  const std::vector<SubmitRecord> want = {
      record(0, 2, 10, 10), record(5, 1, 20, 30, 7), record(-1, 3, 4, 5)};
  const Delivery got = deliver(GetParam(), script, true, want.size());
  expect_same_records(got.records, want);
  EXPECT_EQ(got.parse_errors, 1u);
}

TEST_P(LineProtocolFeed, UnterminatedFinalLineCountsAtClose) {
  const std::string script = "@0 1 5 5\r\n@3 2 7 7 4";
  const std::vector<SubmitRecord> want = {record(0, 1, 5, 5),
                                          record(3, 2, 7, 7, 4)};
  const Delivery got = deliver(GetParam(), script, false, want.size());
  expect_same_records(got.records, want);
  EXPECT_EQ(got.parse_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, LineProtocolFeed,
                         ::testing::Values(Transport::kPipe, Transport::kTcp),
                         [](const ::testing::TestParamInfo<Transport>& p) {
                           return p.param == Transport::kPipe ? "Pipe" : "Tcp";
                         });

// ------------------------------------------------------------------ fuzzing

/// A valid protocol stream: timed and live records, comments, blank and
/// indented lines, CRLF endings and now and then the end sentinel.
std::string valid_stream(util::Rng& rng) {
  std::string s;
  const auto lines = rng.uniform_int(1, 24);
  for (std::int64_t i = 0; i < lines; ++i) {
    if (rng.bernoulli(0.1)) s += rng.bernoulli(0.5) ? " \t" : "  ";
    const auto kind = rng.uniform_int(0, 19);
    if (kind == 0) {
      s += "end";
    } else if (kind == 1) {
      s += "# comment " + std::to_string(i);
    } else if (kind != 2) {
      if (kind % 2 == 0) s += "@" + std::to_string(rng.uniform_int(0, 1000));
      s += (kind % 2 == 0 ? " " : "") +
           std::to_string(rng.uniform_int(1, 256)) + " " +
           std::to_string(rng.uniform_int(1, 90000)) + "\t" +
           std::to_string(rng.uniform_int(1, 90000));
      if (rng.bernoulli(0.5)) {
        s += " " + std::to_string(rng.uniform_int(-50, 5000));
      }
    }
    s += rng.bernoulli(0.3) ? "\r\n" : "\n";
  }
  if (rng.bernoulli(0.5)) s.pop_back();  // unterminated final line
  return s;
}

/// Byte flips, inserted bytes, digit runs and truncation.
void mutate(util::Rng& rng, std::string& s) {
  const auto pos = [&rng, &s](std::size_t extra) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.size() + extra) - 1));
  };
  const auto edits = rng.uniform_int(0, 4);
  for (std::int64_t e = 0; e < edits; ++e) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        if (!s.empty()) {
          const std::size_t at = pos(0);
          s[at] = static_cast<char>(s[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        break;
      case 1: {
        static constexpr char kBytes[] = "@#-+ \t\r\n0123456789end\0\x7f\xff";
        const auto b = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(sizeof(kBytes)) - 1));
        s.insert(pos(1), 1, kBytes[b]);
        break;
      }
      case 2:
        s.insert(pos(1), static_cast<std::size_t>(rng.uniform_int(10, 25)),
                 static_cast<char>('0' + rng.uniform_int(0, 9)));
        break;
      default:
        if (!s.empty()) s.resize(pos(0));
        break;
    }
  }
}

struct ReadResult {
  std::vector<SubmitRecord> records;
  std::size_t parse_errors = 0;
  bool ended = false;
};

/// Feed `bytes` to a fresh reader in chunks of at most `max_chunk` bytes
/// (the whole buffer at once when 0), polling at random virtual times in
/// between, then close the stream and collect everything.
ReadResult read(const std::string& bytes, std::size_t max_chunk,
                util::Rng& rng) {
  LineReader reader;
  ReadResult out;
  std::string buffer;
  std::size_t at = 0;
  while (max_chunk > 0 && at < bytes.size()) {
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(max_chunk)));
    buffer.append(bytes, at, n);
    at += n;
    reader.consume(buffer, /*closed=*/false);
    reader.poll(rng.uniform_int(-1, 1000), out.records, /*exhausted=*/false);
  }
  buffer.append(bytes, std::min(at, bytes.size()));
  reader.consume(buffer, /*closed=*/true);
  EXPECT_TRUE(buffer.empty());
  EXPECT_FALSE(reader.poll(kTimeInfinity, out.records, /*exhausted=*/true));
  EXPECT_EQ(reader.next_submit(), kTimeInfinity);
  out.parse_errors = reader.parse_errors();
  out.ended = reader.ended();
  return out;
}

bool in_range(const SubmitRecord& r) {
  return (r.submit == -1 || (r.submit >= 0 && r.submit <= kMaxTimeField)) &&
         r.nodes >= 1 && r.nodes <= kMaxIntField && r.runtime >= 1 &&
         r.runtime <= kMaxTimeField && r.estimate >= 1 &&
         r.estimate <= kMaxTimeField && r.user >= -kMaxIntField &&
         r.user <= kMaxIntField;
}

TEST(FeedReader, MutatedStreamsReadTheSameInAnyChunking) {
  util::Rng rng(0xfeedULL);
  constexpr int kIterations = 2000;
  for (int it = 0; it < kIterations; ++it) {
    std::string bytes = valid_stream(rng);
    mutate(rng, bytes);
    SCOPED_TRACE("iteration " + std::to_string(it));

    // Line by line: every record is within the model's bounds, and the
    // reader must agree with these counts.
    std::size_t records = 0;
    std::size_t errors = 0;
    bool ended = false;
    std::size_t start = 0;
    while (!ended && start < bytes.size()) {
      std::size_t nl = bytes.find('\n', start);
      if (nl == std::string::npos) nl = bytes.size();
      SubmitRecord r;
      switch (serve::parse_submit_line(bytes.substr(start, nl - start), r)) {
        case ParseResult::kRecord:
          EXPECT_TRUE(in_range(r)) << "record out of range";
          ++records;
          break;
        case ParseResult::kEnd:
          ended = true;
          break;
        case ParseResult::kError:
          ++errors;
          break;
        case ParseResult::kSkip:
          break;
      }
      start = nl + 1;
    }

    const ReadResult whole = read(bytes, 0, rng);
    EXPECT_EQ(whole.records.size(), records);
    EXPECT_EQ(whole.parse_errors, errors);
    EXPECT_EQ(whole.ended, ended);
    for (const std::size_t max_chunk : {1u, 7u, 64u}) {
      const ReadResult chunked = read(bytes, max_chunk, rng);
      expect_same_records(chunked.records, whole.records);
      EXPECT_EQ(chunked.parse_errors, whole.parse_errors);
      EXPECT_EQ(chunked.ended, whole.ended);
    }
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace jsched
