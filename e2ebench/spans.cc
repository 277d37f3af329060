#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace pfql {
namespace e2e {

namespace {

double Field(const Json& node, const char* name) {
  const Json* value = node.Find(name);
  return value != nullptr && value->is_number() ? value->AsDouble() : 0.0;
}

const std::vector<Json>* Children(const Json& node) {
  const Json* children = node.Find("children");
  return children != nullptr && children->is_array() ? &children->items()
                                                     : nullptr;
}

std::string Name(const Json& node) {
  const Json* name = node.Find("name");
  return name != nullptr && name->is_string() ? name->AsString() : "?";
}

void Fold(const Json& node, std::map<std::string, SpanStats>* stats) {
  const double dur = Field(node, "dur_us");
  if (dur >= 0) {  // -1 marks a span still open at serialization
    SpanStats& s = (*stats)[Name(node)];
    ++s.count;
    s.total_us += dur;
    s.self_total_us += SelfUs(node);
    s.durations_us.push_back(dur);
  }
  if (const auto* children = Children(node)) {
    for (const Json& child : *children) Fold(child, stats);
  }
}

}  // namespace

double SelfUs(const Json& node) {
  const double start = Field(node, "start_us");
  const double end = start + Field(node, "dur_us");
  const auto* children = Children(node);
  if (children == nullptr) return end - start;
  std::vector<std::pair<double, double>> spans;
  for (const Json& child : *children) {
    const double s = std::max(start, Field(child, "start_us"));
    const double e = std::min(end, Field(child, "start_us") +
                                       std::max(0.0, Field(child, "dur_us")));
    if (e > s) spans.emplace_back(s, e);
  }
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  double reach = start;
  for (const auto& [s, e] : spans) {
    if (e <= reach) continue;
    covered += e - std::max(s, reach);
    reach = e;
  }
  return std::max(0.0, end - start - covered);
}

void SpanTable::Add(const Json& root) { Fold(root, &stats_); }

void SpanTable::Merge(const SpanTable& other) {
  for (const auto& [name, theirs] : other.stats_) {
    SpanStats& mine = stats_[name];
    mine.count += theirs.count;
    mine.total_us += theirs.total_us;
    mine.self_total_us += theirs.self_total_us;
    mine.durations_us.insert(mine.durations_us.end(),
                             theirs.durations_us.begin(),
                             theirs.durations_us.end());
  }
}

const SpanStats& SpanTable::Get(const std::string& name) const {
  static const SpanStats kEmpty;
  auto it = stats_.find(name);
  return it == stats_.end() ? kEmpty : it->second;
}

void ChromeTrace::AddRequest(const std::string& kind, double start_us,
                             double rtt_us, const Json* root) {
  if (requests_ >= max_requests_) return;
  ++requests_;
  Json event = Json::Object();
  event.Set("name", "client.rtt");
  event.Set("cat", kind);
  event.Set("ph", "X");
  event.Set("ts", start_us);
  event.Set("dur", rtt_us);
  event.Set("pid", 1);
  event.Set("tid", tid_);
  events_.push_back(std::move(event));
  if (root == nullptr) return;
  // The server clock is not the client's: centre the server's root span
  // inside the round trip it answered.
  const double slack = std::max(0.0, rtt_us - Field(*root, "dur_us"));
  AddSpan(*root, start_us + slack / 2 - Field(*root, "start_us"));
}

void ChromeTrace::AddSpan(const Json& node, double base_us) {
  Json event = Json::Object();
  event.Set("name", Name(node));
  event.Set("ph", "X");
  event.Set("ts", base_us + Field(node, "start_us"));
  event.Set("dur", std::max(0.0, Field(node, "dur_us")));
  event.Set("pid", 1);
  event.Set("tid", tid_);
  event.Set("args", Json::Object().Set("self_us", SelfUs(node)));
  events_.push_back(std::move(event));
  if (const auto* children = Children(node)) {
    for (const Json& child : *children) AddSpan(child, base_us);
  }
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<const ChromeTrace*>& traces) {
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot write " + path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const ChromeTrace* trace : traces) {
    for (const Json& event : trace->events()) {
      out << (first ? "\n" : ",\n") << event.Dump();
      first = false;
    }
  }
  out << "\n]}\n";
  return out ? Status::OK() : Status::Unavailable("short write to " + path);
}

}  // namespace e2e
}  // namespace pfql
