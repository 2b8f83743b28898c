#include "obs/trace.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/json.h"

namespace inf2vec {
namespace obs {
namespace {

TEST(TraceCollectorTest, DisabledCollectorRecordsNothingViaSpans) {
  TraceCollector collector(8);
  ASSERT_FALSE(collector.enabled());
  { TraceSpan span("noop", "test", &collector); }
  EXPECT_EQ(collector.size(), 0u);
}

TEST(TraceCollectorTest, SpansRecordNameCategoryAndDuration) {
  TraceCollector collector(8);
  collector.set_enabled(true);
  { TraceSpan span("work", "test", &collector); }
  ASSERT_EQ(collector.size(), 1u);
  const std::vector<TraceEvent> events = collector.Events();
  const TraceEvent& e = events[0];
  EXPECT_EQ(e.name, "work");
  EXPECT_EQ(e.category, "test");
  EXPECT_GE(e.duration_us, 0u);
}

TEST(TraceCollectorTest, NestedSpansCloseInnerFirst) {
  TraceCollector collector(8);
  collector.set_enabled(true);
  {
    TraceSpan outer("outer", "test", &collector);
    { TraceSpan inner("inner", "test", &collector); }
  }
  ASSERT_EQ(collector.size(), 2u);
  const std::vector<TraceEvent> events = collector.Events();
  // Destruction order: inner records before outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  // The outer interval contains the inner one (that containment is how
  // chrome://tracing reconstructs nesting).
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].start_us + events[1].duration_us,
            events[0].start_us + events[0].duration_us);
}

TEST(TraceCollectorTest, RingOverflowKeepsNewestEvents) {
  TraceCollector collector(4);
  collector.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    collector.Record(TraceEvent{"e" + std::to_string(i), "test", 0,
                                static_cast<uint64_t>(i), 1, 0, 0, {}});
  }
  EXPECT_EQ(collector.size(), 4u);
  EXPECT_EQ(collector.dropped(), 6u);
  const std::vector<TraceEvent> events = collector.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first order over the surviving (newest) window: e6..e9.
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[3].name, "e9");
}

TEST(TraceCollectorTest, ClearEmptiesRingAndRestartsEpoch) {
  TraceCollector collector(4);
  collector.set_enabled(true);
  collector.Record(TraceEvent{"old", "test", 0, 0, 1, 0, 0, {}});
  collector.Clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(TraceCollectorTest, ChromeTraceJsonIsValidAndComplete) {
  TraceCollector collector(8);
  collector.set_enabled(true);
  collector.Record(TraceEvent{"phase \"a\"", "cat", 3, 10, 25, 0, 0, {}});
  collector.Record(TraceEvent{"phase_b", "cat", 0, 40, 5, 0, 0, {}});

  const std::string json = collector.ToChromeTraceJson();
  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.Find("displayTimeUnit")->AsString(), "ms");

  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 2u);
  const JsonValue& first = events->items()[0];
  // Quotes in span names survive the escape/parse round trip.
  EXPECT_EQ(first.Find("name")->AsString(), "phase \"a\"");
  EXPECT_EQ(first.Find("ph")->AsString(), "X");
  EXPECT_EQ(first.Find("ts")->AsInt(), 10);
  EXPECT_EQ(first.Find("dur")->AsInt(), 25);
  EXPECT_EQ(first.Find("pid")->AsInt(), 1);
  EXPECT_EQ(first.Find("tid")->AsInt(), 3);
}

TEST(TraceCollectorTest, SpanAgainstDefaultCollectorHonoursEnableFlag) {
  TraceCollector& collector = TraceCollector::Default();
  collector.Clear();
  collector.set_enabled(true);
  { TraceSpan span("default-span"); }
  EXPECT_EQ(collector.size(), 1u);
  collector.set_enabled(false);
  collector.Clear();
}

TEST(TraceCollectorTest, RingOverflowCountsDroppedEvents) {
  TraceCollector collector(4);
  collector.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("spin", "test", &collector);
  }
  EXPECT_EQ(collector.size(), 4u);
  EXPECT_EQ(collector.dropped(), 6u);
  collector.Clear();
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(TraceSpanTest, NestedSpansLinkParentAndChildIds) {
  TraceCollector collector(8);
  collector.set_enabled(true);
  uint64_t outer_id = 0;
  {
    TraceSpan outer("outer", "test", &collector);
    outer_id = outer.span_id();
    EXPECT_EQ(TraceSpan::Current(), &outer);
    {
      TraceSpan inner("inner", "test", &collector);
      EXPECT_EQ(TraceSpan::Current(), &inner);
      EXPECT_NE(inner.span_id(), outer_id);
    }
    EXPECT_EQ(TraceSpan::Current(), &outer);
  }
  EXPECT_EQ(TraceSpan::Current(), nullptr);

  const std::vector<TraceEvent> events = collector.Events();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];  // Inner closes first.
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.parent_id, outer_id);
  EXPECT_EQ(outer.id, outer_id);
  EXPECT_EQ(outer.parent_id, 0u);
}

TEST(TraceSpanTest, AttributesLandInRecordedEventArgs) {
  TraceCollector collector(8);
  collector.set_enabled(true);
  {
    TraceSpan span("attributed", "test", &collector);
    span.SetAttr("seed_count", static_cast<uint64_t>(12));
    span.SetAttr("cache_hit", true);
    span.SetAttr("kernel_isa", "avx2");
  }
  const std::vector<TraceEvent> events = collector.Events();
  ASSERT_EQ(events.size(), 1u);
  const auto& args = events[0].args;
  ASSERT_EQ(args.size(), 3u);
  EXPECT_EQ(args[0], (std::pair<std::string, std::string>{"seed_count",
                                                          "12"}));
  EXPECT_EQ(args[1], (std::pair<std::string, std::string>{"cache_hit",
                                                          "true"}));
  EXPECT_EQ(args[2], (std::pair<std::string, std::string>{"kernel_isa",
                                                          "avx2"}));
}

TEST(TraceSpanTest, InertSpanIgnoresAttributesAndHasNoCurrent) {
  TraceCollector collector(8);  // Disabled, no sink installed.
  TraceSpan span("inert", "test", &collector);
  EXPECT_FALSE(span.active());
  span.SetAttr("ignored", "value");  // Must not crash or allocate args.
  EXPECT_EQ(TraceSpan::Current(), nullptr);
}

/// Collects every span finished on the installing thread.
class RecordingSink : public TraceSink {
 public:
  void OnSpanEnd(const TraceEvent& event) override {
    events.push_back(event);
  }
  std::vector<TraceEvent> events;
};

TEST(TraceSinkTest, SinkReceivesSpansEvenWithCollectorDisabled) {
  TraceCollector collector(8);
  ASSERT_FALSE(collector.enabled());
  RecordingSink sink;
  {
    ScopedTraceSink guard(&sink);
    TraceSpan span("sunk", "test", &collector);
    EXPECT_TRUE(span.active());
    span.SetAttr("k", "v");
  }
  EXPECT_EQ(ThreadTraceSink(), nullptr);  // Guard restored the previous.
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].name, "sunk");
  ASSERT_EQ(sink.events[0].args.size(), 1u);
  // Nothing reached the (disabled) collector.
  EXPECT_EQ(collector.size(), 0u);
}

TEST(TraceSinkTest, ChromeTraceEmitsSpanLinkageInArgs) {
  TraceCollector collector(8);
  collector.set_enabled(true);
  {
    TraceSpan outer("outer", "test", &collector);
    TraceSpan inner("inner", "test", &collector);
  }
  Result<JsonValue> doc = ParseJson(collector.ToChromeTraceJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  const JsonValue& inner = events->items()[0];
  const JsonValue* args = inner.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_GT(args->Find("span_id")->AsInt(), 0);
  EXPECT_GT(args->Find("parent_id")->AsInt(), 0);
}

}  // namespace
}  // namespace obs
}  // namespace inf2vec
