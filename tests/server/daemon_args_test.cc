// pfqld's flag parsing: every numeric flag is read whole and bounded, so a
// malformed or out-of-range value is InvalidArgument and nothing is sized
// or started from it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "server/daemon.h"

namespace pfql {
namespace server {
namespace {

StatusOr<DaemonOptions> Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseDaemonArgs(static_cast<int>(argv.size()), argv.data());
}

void ExpectRejected(const std::string& flag, const std::string& value) {
  auto options = Parse({flag, value});
  ASSERT_FALSE(options.ok()) << flag << " " << value;
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(options.status().message().find(flag), std::string::npos)
      << options.status();
}

TEST(ParseDaemonArgsTest, ReadsEveryNumericFlag) {
  auto options = Parse({"--port", "7621", "--workers", "3", "--queue", "32",
                        "--cache", "0", "--timeout-ms", "2500",
                        "--fault-seed", "18446744073709551615", "--quiet"});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->port, 7621);
  EXPECT_EQ(options->service.workers, 3u);
  EXPECT_EQ(options->service.queue_capacity, 32u);
  EXPECT_EQ(options->service.cache_entries, 0u);
  EXPECT_EQ(options->service.default_timeout_ms, 2500);
  EXPECT_EQ(options->fault_seed, UINT64_MAX);
  EXPECT_TRUE(options->quiet);
}

TEST(ParseDaemonArgsTest, AcceptsEachBound) {
  auto options = Parse(
      {"--port", std::to_string(kMaxPort), "--workers",
       std::to_string(kMaxDaemonWorkers), "--queue",
       std::to_string(kMaxDaemonQueue), "--cache",
       std::to_string(kMaxDaemonCache), "--timeout-ms",
       std::to_string(kMaxTimeoutMs)});
  ASSERT_TRUE(options.ok()) << options.status();
  EXPECT_EQ(options->port, 65535);
  EXPECT_EQ(options->service.workers, kMaxDaemonWorkers);
}

TEST(ParseDaemonArgsTest, RejectsMalformedNumbers) {
  for (const char* value : {"abc", "", "-1", "+1", " 1", "1 ", "1x", "0x10",
                            "1.5", "1e3"}) {
    SCOPED_TRACE(value);
    ExpectRejected("--port", value);
    ExpectRejected("--workers", value);
    ExpectRejected("--queue", value);
    ExpectRejected("--cache", value);
    ExpectRejected("--timeout-ms", value);
    ExpectRejected("--fault-seed", value);
  }
}

TEST(ParseDaemonArgsTest, RejectsValuesPastTheirBound) {
  ExpectRejected("--port", "70000");
  ExpectRejected("--port", std::to_string(kMaxPort + 1));
  ExpectRejected("--workers", "0");
  ExpectRejected("--workers", "100000");
  ExpectRejected("--workers", std::to_string(kMaxDaemonWorkers + 1));
  ExpectRejected("--queue", std::to_string(kMaxDaemonQueue + 1));
  ExpectRejected("--cache", std::to_string(kMaxDaemonCache + 1));
  ExpectRejected("--timeout-ms", std::to_string(kMaxTimeoutMs + 1));
  // One past 2^64 - 1 overflows the reader itself.
  ExpectRejected("--fault-seed", "18446744073709551616");
  ExpectRejected("--workers", "18446744073709551615");
}

TEST(ParseDaemonArgsTest, MissingValueAndUnknownFlag) {
  EXPECT_EQ(Parse({"--workers"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse({"--bogus", "1"}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace server
}  // namespace pfql
