#include "server/tcp_server.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/line_writer.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace pfql {
namespace server {

namespace {

metrics::Counter* TcpConnectionsCounter() {
  static metrics::Counter* const c =
      metrics::MetricRegistry::Instance().GetCounter(
          "pfql_tcp_connections_total");
  return c;
}

metrics::Counter* TcpRequestsCounter() {
  static metrics::Counter* const c =
      metrics::MetricRegistry::Instance().GetCounter(
          "pfql_tcp_requests_total");
  return c;
}

metrics::Counter* TcpWriteErrorsCounter() {
  static metrics::Counter* const c =
      metrics::MetricRegistry::Instance().GetCounter(
          "pfql_tcp_write_errors_total");
  return c;
}

metrics::Counter* DroppedUpdatesCounter() {
  static metrics::Counter* const c =
      metrics::MetricRegistry::Instance().GetCounter(
          "pfql_sched_updates_dropped_total");
  return c;
}

std::string FrameResponse(const Response& response) {
  std::string line = SerializeResponse(response);
  line += '\n';
  return line;
}

}  // namespace

TcpServer::TcpServer(QueryService* service, uint16_t port)
    : service_(service),
      port_(port),
      listener_([this](int fd) { ServeConnection(fd); },
                TcpConnectionsCounter()) {}

void TcpServer::ServeConnection(int fd) {
  // All bytes leave through the writer, including plain responses — one
  // producer queue keeps response and push lines whole and ordered
  // (line_writer.h documents the backpressure policy). The sink holds the
  // writer shared: the scheduler may retain sink copies briefly past
  // connection teardown, and Enqueue after Close is a no-op.
  auto writer = std::make_shared<LineWriter>(
      fd, kWriteQueueLines, DroppedUpdatesCounter(),
      TcpWriteErrorsCounter(), fault::points::kTcpWrite);
  sched::UpdateSink sink = [writer](const std::string& line,
                                    bool droppable) {
    writer->Enqueue(line + '\n', droppable);
  };
  // Subscriptions opened on this connection, detached when it dies.
  std::vector<std::string> subscriptions;

  // kTcpRead fires after a successful read, before the request is
  // processed: the peer sees an abrupt close with no reply.
  LineReader reader(fd, kMaxLineBytes, fault::points::kTcpRead);
  while (!writer->failed()) {
    StatusOr<std::string_view> line = reader.Next();
    if (!line.ok()) {
      if (line.status().code() == StatusCode::kInvalidArgument) {
        writer->Enqueue(FrameResponse(ErrorResponse(Json(), "", line.status())),
                        false);
      }
      break;
    }
    if (line->empty()) continue;
    TcpRequestsCounter()->Increment();
    Response response = service_->CallLineWithSink(*line, sink);
    if (response.status.ok()) {
      const Json* sub = response.result.Find("sub");
      if (sub != nullptr && sub->is_string()) {
        if (response.method == "subscribe") {
          subscriptions.push_back(sub->AsString());
        } else if (response.method == "unsubscribe") {
          subscriptions.erase(std::remove(subscriptions.begin(),
                                          subscriptions.end(),
                                          sub->AsString()),
                              subscriptions.end());
        }
      }
    }
    if (!writer->Enqueue(FrameResponse(response), false)) break;
  }
  // Detach this connection's live subscriptions; each pushes its final
  // "unsubscribed" complete into the dying writer best-effort.
  for (const std::string& id : subscriptions) {
    service_->scheduler().Unsubscribe(id);
  }
  writer->Close();
}

}  // namespace server
}  // namespace pfql
