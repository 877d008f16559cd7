//===- tests/MetricsTest.cpp - Metrics and JSON writer edge cases --------===//
//
// Edge cases of the telemetry surfaces: metric names that need JSON string
// escaping, counters pushed past the exactly-representable integer range,
// empty histograms and series, and the shared JsonWriter every bench tool
// emits through.
//
//===----------------------------------------------------------------------===//

#include "comm/Workload.h"
#include "support/Format.h"
#include "support/Metrics.h"

#include "Oracles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace scg;

//===----------------------------------------------------------------------===//
// jsonEscaped / JsonWriter.
//===----------------------------------------------------------------------===//

TEST(JsonEscapeTest, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(jsonEscaped("plain"), "plain");
  EXPECT_EQ(jsonEscaped("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(jsonEscaped("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscaped("line\nbreak\ttab\rret"),
            "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(jsonEscaped(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(jsonEscaped("\x01\x1f"), "\\u0001\\u001f");
}

TEST(JsonWriterTest, RendersNestedStructure) {
  JsonWriter W;
  W.beginObject()
      .field("name", "queries")
      .field("threads", 4u)
      .field("ok", true)
      .key("grid")
      .beginArray();
  W.beginObject().field("qps", 1234.5, 1).endObject();
  W.endArray().endObject();
  EXPECT_EQ(W.str(), "{\n"
                     "  \"name\": \"queries\",\n"
                     "  \"threads\": 4,\n"
                     "  \"ok\": true,\n"
                     "  \"grid\": [\n"
                     "    {\n"
                     "      \"qps\": 1234.5\n"
                     "    }\n"
                     "  ]\n"
                     "}\n");
}

TEST(JsonWriterTest, ScalarArraysStayInline) {
  JsonWriter W;
  W.beginObject().key("dims").beginArray();
  W.value(uint64_t(2)).value(uint64_t(3)).value(uint64_t(4));
  W.endArray().endObject();
  EXPECT_EQ(W.str(), "{\n  \"dims\": [2, 3, 4]\n}\n");
}

TEST(JsonWriterTest, EscapesKeysAndStringValues) {
  JsonWriter W;
  W.beginObject().field("odd \"key\"", "tab\there").endObject();
  EXPECT_EQ(W.str(), "{\n  \"odd \\\"key\\\"\": \"tab\\there\"\n}\n");
}

TEST(JsonWriterTest, CanonicalDoubleFormatting) {
  JsonWriter W;
  W.beginObject()
      .field("whole", 3.0)          // integral double -> integer form.
      .field("frac", 0.5)           // shortest round-trip form.
      .field("fixed", 1.0 / 3.0, 3) // explicit fixed precision.
      .endObject();
  EXPECT_EQ(W.str(), "{\n"
                     "  \"whole\": 3,\n"
                     "  \"frac\": 0.5,\n"
                     "  \"fixed\": 0.333\n"
                     "}\n");
}

TEST(JsonWriterTest, SplicesRawJson) {
  JsonWriter W;
  W.beginObject().key("metrics").rawValue("{\"a\": 1}").endObject();
  EXPECT_EQ(W.str(), "{\n  \"metrics\": {\"a\": 1}\n}\n");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter W;
  W.beginObject().key("arr").beginArray().endArray().key("obj").beginObject()
      .endObject().endObject();
  EXPECT_EQ(W.str(), "{\n  \"arr\": [],\n  \"obj\": {}\n}\n");
}

//===----------------------------------------------------------------------===//
// MetricsRegistry edge cases.
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, EscapesMetricNamesInJson) {
  MetricsRegistry M;
  M.counter("weird \"name\"\nwith\\stuff").add(3);
  std::string Json = M.toJson();
  // The raw quote/newline/backslash must not appear unescaped.
  EXPECT_NE(Json.find("\"weird \\\"name\\\"\\nwith\\\\stuff\""),
            std::string::npos)
      << Json;
}

TEST(MetricsRegistryTest, TrafficMetricNamesRoundTripThroughJson) {
  // Pin the traffic driver's published metric names (traffic.setup.* and
  // traffic.closedloop.* included) against silent renames: each name must
  // survive registry -> JSON verbatim, at value zero -- a closed-loop
  // counter that never fired still has to be visible in the export, and
  // the dotted names must need no escaping.
  std::vector<std::string> Names = oracle::trafficMetricNames();
  ASSERT_FALSE(Names.empty());
  MetricsRegistry M;
  for (const std::string &Name : Names)
    M.counter(Name);
  std::string Json = M.toJson();
  for (const std::string &Name : Names) {
    EXPECT_EQ(jsonEscaped(Name), Name) << Name;
    EXPECT_NE(Json.find("\"" + Name + "\""), std::string::npos) << Name;
  }
  // The canonical new names, spelled out so a rename of either subsystem
  // prefix fails here and not in a dashboard.
  for (const char *Required :
       {"traffic.setup.events", "traffic.setup.distinct_labels",
        "traffic.setup.route_hops", "traffic.setup.dedup_factor",
        "traffic.closedloop.max_queue",
        "traffic.closedloop.deferred_injections",
        "traffic.closedloop.deferred_steps"})
    EXPECT_NE(std::find(Names.begin(), Names.end(), Required), Names.end())
        << Required;
}

TEST(MetricsRegistryTest, CounterPastIntegerPrecisionStaysFinite) {
  MetricsRegistry M;
  Metric &C = M.counter("overflow");
  // Push the counter past 2^63 (and 2^53): the JSON export must not take
  // the undefined double -> int64 cast, and the value must stay a finite
  // JSON number.
  C.add(std::numeric_limits<uint64_t>::max());
  C.add(std::numeric_limits<uint64_t>::max());
  EXPECT_GT(C.value(), 9.2e18);
  std::string Json = M.toJson();
  EXPECT_EQ(Json.find("inf"), std::string::npos);
  EXPECT_EQ(Json.find("nan"), std::string::npos);
  EXPECT_NE(Json.find("\"overflow\""), std::string::npos);
  // 2 * 2^64 = 2^65 exactly; the value renders through the double path.
  EXPECT_NE(Json.find("36893488147419103232"), std::string::npos) << Json;
}

TEST(MetricsRegistryTest, EmptySeriesSummaryIsAllZeros) {
  MetricsRegistry M;
  M.gauge("idle").set(7.5);
  MetricSummary S = MetricsRegistry::summarize(*M.find("idle"));
  EXPECT_EQ(S.Points, 0u);
  EXPECT_EQ(S.Min, 0.0);
  EXPECT_EQ(S.Max, 0.0);
  EXPECT_EQ(S.Mean, 0.0);
  EXPECT_EQ(S.Last, 0.0);
  // And the export renders the empty series as [].
  EXPECT_NE(M.toJson().find("\"series\": []"), std::string::npos);
}

TEST(MetricsRegistryTest, SeriesDownsamplingKeepsEndpoints) {
  MetricsRegistry M;
  Metric &G = M.gauge("load");
  for (uint64_t Step = 0; Step != 100; ++Step) {
    G.set(double(Step));
    M.sample(Step);
  }
  std::string Json = M.toJson(/*MaxSeriesPoints=*/10);
  EXPECT_NE(Json.find("[0, 0]"), std::string::npos);
  EXPECT_NE(Json.find("[99, 99]"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Histogram edge cases.
//===----------------------------------------------------------------------===//

TEST(HistogramTest, EmptyHistogram) {
  Histogram H;
  EXPECT_EQ(H.total(), 0u);
  EXPECT_EQ(H.maxValue(), 0u);
  EXPECT_EQ(H.count(0), 0u);
  EXPECT_EQ(H.count(12345), 0u);
  EXPECT_EQ(H.render(), "(empty)\n");
}

TEST(HistogramTest, SingleZeroValue) {
  Histogram H;
  H.add(0);
  EXPECT_EQ(H.total(), 1u);
  EXPECT_EQ(H.maxValue(), 0u);
  EXPECT_EQ(H.count(0), 1u);
  EXPECT_EQ(H.render(), "0 | ########################################  1\n");
}

TEST(HistogramTest, SparseBinsSkipEmptyRows) {
  Histogram H;
  H.add(1);
  H.add(1);
  H.add(9);
  EXPECT_EQ(H.maxValue(), 9u);
  std::string R = H.render(4);
  // Only the two nonempty bins render; the bar for the smaller count still
  // gets at least one mark.
  EXPECT_NE(R.find("1 | ####  2"), std::string::npos) << R;
  EXPECT_NE(R.find("9 | ##  1"), std::string::npos) << R;
  EXPECT_EQ(R.find("2 |"), std::string::npos);
}
