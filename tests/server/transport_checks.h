// Checks shared by the pfqld (tcp_server_test) and pfqlr (router_test)
// suites: both front ends serve connections through server/loopback.h, so
// both must keep the same transport contracts.
#ifndef PFQL_TESTS_SERVER_TRANSPORT_CHECKS_H_
#define PFQL_TESTS_SERVER_TRANSPORT_CHECKS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "server/client.h"
#include "server/line_writer.h"
#include "server/loopback.h"
#include "util/json.h"

namespace pfql {
namespace server {

/// Lines of /proc/<pid>/maps. Every thread stack that is never joined stays
/// mapped, so a count that grows with closed connections is a leak.
inline size_t MappingCount(const std::string& pid) {
  std::ifstream maps("/proc/" + pid + "/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

/// Sends one 5 MiB request line to the front end on `port`: it must answer
/// with the 4 MiB cap's InvalidArgument, close that connection, and go on
/// serving new ones. The front end stops reading at the cap, so the rest of
/// the line may meet a reset; it is sent from a thread that ignores that.
inline void ExpectOverlongLineRejected(uint16_t port) {
  StatusOr<int> fd = ConnectLoopback(port);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string line = std::string(5u << 20, 'x') + '\n';
  std::thread sender([&] { WriteAll(*fd, line.data(), line.size()); });
  LineReader reader(*fd);
  auto reply = reader.Next();
  const std::string text = reply.ok() ? std::string(*reply) : "";
  const bool closed = reply.ok() && !reader.Next().ok();
  sender.join();
  ::close(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto json = Json::Parse(text);
  ASSERT_TRUE(json.ok()) << text;
  const Json* error = json->Find("error");
  ASSERT_NE(error, nullptr) << text;
  EXPECT_EQ(error->Find("code")->AsString(), "InvalidArgument");
  EXPECT_EQ(error->Find("message")->AsString(),
            "request line exceeds 4194304 bytes");
  EXPECT_TRUE(closed) << "connection left open";

  Client fresh;
  ASSERT_TRUE(fresh.Connect(port).ok());
  auto pong = fresh.RoundTrip("{\"method\":\"ping\"}");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_NE(pong->find("\"pong\":true"), std::string::npos) << *pong;
}

}  // namespace server
}  // namespace pfql

#endif  // PFQL_TESTS_SERVER_TRANSPORT_CHECKS_H_
