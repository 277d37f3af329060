// Trace/span mechanics: RAII nesting through the thread-local context,
// cross-thread propagation via Capture/ScopedContext, JSON tree shape,
// and the finished-trace ring buffer.
#include "util/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace pfql {
namespace trace {
namespace {

TEST(TraceIdTest, UniqueAndSixteenHexDigits) {
  std::set<std::string> ids;
  for (int i = 0; i < 100; ++i) {
    const std::string id = NewTraceId();
    ASSERT_EQ(id.size(), 16u);
    for (char c : id) {
      ASSERT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
          << "non-hex char in trace id: " << id;
    }
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(SpanTest, NoOpWithoutActiveTrace) {
  // No context installed: constructing and destroying spans must be safe
  // and leave the thread-local state untouched.
  {
    Span a("outer");
    Span b("inner");
  }
  EXPECT_EQ(Current().trace, nullptr);
  EXPECT_EQ(Current().span, kNoSpan);
}

TEST(SpanTest, NestingBuildsParentEdges) {
  Trace trace(NewTraceId());
  {
    ScopedContext sc({&trace, kNoSpan});
    Span root("request");
    {
      Span child("execute");
      Span grandchild("eval.exact");
    }
    Span sibling("finish");
  }
  const Json json = trace.ToJson();
  const Json* root = json.Find("root");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->Find("name")->AsString(), "request");
  const Json* children = root->Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->size(), 2u);
  EXPECT_EQ(children->items()[0].Find("name")->AsString(), "execute");
  EXPECT_EQ(children->items()[1].Find("name")->AsString(), "finish");
  const Json* grandchildren = children->items()[0].Find("children");
  ASSERT_NE(grandchildren, nullptr);
  ASSERT_EQ(grandchildren->size(), 1u);
  EXPECT_EQ(grandchildren->items()[0].Find("name")->AsString(), "eval.exact");
  // Everything finished, so every dur_us is >= 0.
  EXPECT_GE(root->Find("dur_us")->AsInt(), 0);
  EXPECT_GE(grandchildren->items()[0].Find("dur_us")->AsInt(), 0);
}

TEST(SpanTest, UnfinishedSpanReportsMinusOne) {
  Trace trace(NewTraceId());
  const SpanId open = trace.StartSpan("still.open", kNoSpan);
  const Json json = trace.ToJson();
  EXPECT_EQ(json.Find("root")->Find("dur_us")->AsInt(), -1);
  trace.EndSpan(open);
  EXPECT_GE(trace.ToJson().Find("root")->Find("dur_us")->AsInt(), 0);
}

TEST(SpanTest, ScopedContextRestoresOnExit) {
  Trace trace(NewTraceId());
  {
    ScopedContext sc({&trace, kNoSpan});
    EXPECT_EQ(Current().trace, &trace);
  }
  EXPECT_EQ(Current().trace, nullptr);
}

TEST(SpanTest, CrossThreadPropagation) {
  Trace trace(NewTraceId());
  {
    ScopedContext sc({&trace, kNoSpan});
    Span root("request");
    const Context ctx = Current();
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([ctx] {
        ScopedContext worker_sc(ctx);
        Span span("approx.worker");
      });
    }
    for (auto& t : workers) t.join();
  }
  const Json json = trace.ToJson();
  const Json* children = json.Find("root")->Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->size(), 4u);
  for (size_t i = 0; i < children->size(); ++i) {
    EXPECT_EQ(children->items()[i].Find("name")->AsString(), "approx.worker");
  }
}

TEST(SpanTest, ConcurrentSpansFromManyThreads) {
  // Thread-safety soak: many threads opening/closing spans against one
  // trace (run under TSan in CI). Checked for count, not structure.
  Trace trace(NewTraceId());
  const SpanId root = trace.StartSpan("request", kNoSpan);
  std::vector<std::thread> workers;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      ScopedContext sc({&trace, root});
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("work");
      }
    });
  }
  for (auto& t : workers) t.join();
  trace.EndSpan(root);
  const Json json = trace.ToJson();
  const Json* children = json.Find("root")->Find("children");
  ASSERT_NE(children, nullptr);
  EXPECT_EQ(children->size(),
            static_cast<size_t>(kThreads * kSpansPerThread));
}

TEST(RecorderTest, RingEvictsOldest) {
  TraceRecorder recorder(3);
  for (int i = 0; i < 5; ++i) {
    TraceRecorder::Entry entry;
    entry.trace_id = "id" + std::to_string(i);
    entry.method = "approx";
    entry.dur_us = i;
    entry.tree = Json::Object();
    recorder.Record(std::move(entry));
  }
  EXPECT_EQ(recorder.size(), 3u);
  const Json summaries = recorder.Summaries();
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_EQ(summaries.items()[0].Find("trace_id")->AsString(), "id2");
  EXPECT_EQ(summaries.items()[2].Find("trace_id")->AsString(), "id4");
  EXPECT_TRUE(recorder.Find("id0").is_null());
  EXPECT_FALSE(recorder.Find("id3").is_null());
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(RecorderTest, FindReturnsRecordedTree) {
  TraceRecorder recorder(4);
  Trace trace(NewTraceId());
  trace.EndSpan(trace.StartSpan("request", kNoSpan));
  TraceRecorder::Entry entry;
  entry.trace_id = trace.id();
  entry.method = "exact";
  entry.dur_us = trace.ElapsedUs();
  entry.tree = trace.ToJson();
  recorder.Record(std::move(entry));
  const Json found = recorder.Find(trace.id());
  ASSERT_FALSE(found.is_null());
  EXPECT_EQ(found.Find("root")->Find("name")->AsString(), "request");
}

}  // namespace
}  // namespace trace
}  // namespace pfql
