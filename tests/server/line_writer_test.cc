// The backpressure contract of the per-connection writer both front ends
// use (line_writer.h): a stalled reader costs stale updates, never a
// response, and never reorders what it does deliver.
#include "server/line_writer.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "util/metrics.h"

namespace pfql {
namespace server {
namespace {

/// Reads `size` bytes from `fd`, or fewer if 5 s pass with none arriving.
std::string ReadBytes(int fd, size_t size) {
  std::string out;
  char chunk[1 << 16];
  while (out.size() < size) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) != 1) break;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

TEST(LineWriterTest, StalledReaderShedsUpdatesButDeliversEveryResponse) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  metrics::Counter dropped;
  LineWriter writer(fds[0], /*max_lines=*/4, &dropped);

  // A line far larger than the socket buffer: once its first bytes reach
  // the reader, the writer thread has dequeued it and stays blocked in
  // send() until the reader drains, so the lines below only queue.
  const std::string big = std::string(8u << 20, 'x') + '\n';
  ASSERT_TRUE(writer.Enqueue(big, false));
  pollfd pfd{fds[1], POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);

  // Past max_lines, the oldest droppable line goes first, and is counted.
  for (const char* line : {"m1\n", "d1\n", "d2\n", "m2\n"}) {
    ASSERT_TRUE(writer.Enqueue(line, line[0] == 'd'));
  }
  EXPECT_EQ(dropped.Value(), 0u);
  ASSERT_TRUE(writer.Enqueue("m3\n", false));  // sheds d1
  EXPECT_EQ(dropped.Value(), 1u);
  ASSERT_TRUE(writer.Enqueue("m4\n", false));  // sheds d2
  EXPECT_EQ(dropped.Value(), 2u);

  // A queue full of must-deliver lines sheds the incoming update instead,
  // and still takes the next must-deliver line.
  EXPECT_TRUE(writer.Enqueue("d3\n", true));
  EXPECT_EQ(dropped.Value(), 3u);
  EXPECT_TRUE(writer.Enqueue("m5\n", false));
  EXPECT_EQ(dropped.Value(), 3u);

  // Once the reader drains, every must-deliver line has arrived, in order.
  const std::string rest = "m1\nm2\nm3\nm4\nm5\n";
  const std::string got = ReadBytes(fds[1], big.size() + rest.size());
  ASSERT_EQ(got.size(), big.size() + rest.size());
  EXPECT_EQ(got.compare(0, big.size(), big), 0);
  EXPECT_EQ(got.substr(big.size()), rest);
  writer.Close();
  EXPECT_FALSE(writer.failed());
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace server
}  // namespace pfql
