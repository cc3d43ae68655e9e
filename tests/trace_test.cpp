#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "des/time.h"
#include "trace/json.h"
#include "trace/metrics.h"
#include "trace/sink.h"
// The global allocation counter for the overhead guard; tests snapshot it
// around the region under test.
#include "alloc_count.h"

namespace ioc::trace {
namespace {

// --------------------------------------------------------------- ring buffer

TEST(Sink, RecordsAndReadsBack) {
  TraceSink sink(8);
  sink.span("step", "container", "bonds", 3, 1000, 2500,
            {{"queue_depth", 2}, {"bytes", 4096}});
  ASSERT_EQ(sink.size(), 1u);
  const auto spans = sink.spans();
  const SpanRecord& s = spans[0];
  EXPECT_EQ(s.name(), "step");
  EXPECT_EQ(s.category(), "container");
  EXPECT_EQ(s.source(), "bonds");
  EXPECT_EQ(s.step, 3u);
  EXPECT_EQ(s.start, 1000);
  EXPECT_EQ(s.end, 2500);
  EXPECT_EQ(s.duration(), 1500);
  EXPECT_DOUBLE_EQ(s.arg_or("queue_depth", -1), 2);
  EXPECT_DOUBLE_EQ(s.arg_or("bytes", -1), 4096);
  EXPECT_DOUBLE_EQ(s.arg_or("missing", -1), -1);
}

TEST(Sink, RingOverwritesOldestAndCountsDrops) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.span("s", "c", "src", static_cast<std::uint64_t>(i), i, i + 1);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  // Oldest-first readout holds the newest four, in order.
  const auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].step, 6u + i);
}

TEST(Sink, DisabledSinkRecordsNothing) {
  TraceSink sink(4);
  sink.set_enabled(false);
  EXPECT_FALSE(active(&sink));
  EXPECT_FALSE(active(nullptr));
  sink.span("s", "c", "src", 0, 0, 1);
  EXPECT_EQ(sink.size(), 0u);
  sink.set_enabled(true);
  EXPECT_TRUE(active(&sink));
}

TEST(Sink, ArgsPastMaxAreDroppedNotCorrupted) {
  TraceSink sink(4);
  sink.span("s", "c", "src", 0, 0, 1,
            {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}, {"f", 6}});
  const auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].arg_count, SpanRecord::kMaxArgs);
  EXPECT_DOUBLE_EQ(spans[0].arg_or("d", -1), 4);
  EXPECT_DOUBLE_EQ(spans[0].arg_or("e", -1), -1);
}

TEST(Sink, ClearResetsEverything) {
  TraceSink sink(2);
  sink.span("s", "c", "src", 0, 0, 1);
  sink.span("s", "c", "src", 1, 1, 2);
  sink.span("s", "c", "src", 2, 2, 3);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  sink.span("s", "c", "src", 9, 0, 1);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.spans()[0].step, 9u);
}

// ---------------------------------------------------------------- round trip

TEST(ChromeJson, RoundTripPreservesSpanFields) {
  TraceSink sink(16);
  sink.span("step", "container", "bonds", 7, des::from_seconds(1.5),
            des::from_seconds(2.25), {{"queue_depth", 3}, {"bytes", 1024}});
  sink.span("pause", "control", "csym", 0, des::from_seconds(3),
            des::from_seconds(3.125), {{"delta", -2}},
            "kRunning -> kPaused");

  const std::string json = to_chrome_json(sink);
  std::vector<SpanRecord> back;
  std::string err;
  ASSERT_TRUE(from_chrome_json(json, &back, &err)) << err;
  ASSERT_EQ(back.size(), 2u);

  EXPECT_EQ(back[0].name(), "step");
  EXPECT_EQ(back[0].category(), "container");
  EXPECT_EQ(back[0].source(), "bonds");
  EXPECT_EQ(back[0].step, 7u);
  EXPECT_EQ(back[0].start, des::from_seconds(1.5));
  EXPECT_EQ(back[0].end, des::from_seconds(2.25));
  EXPECT_DOUBLE_EQ(back[0].arg_or("queue_depth", -1), 3);
  EXPECT_DOUBLE_EQ(back[0].arg_or("bytes", -1), 1024);

  EXPECT_EQ(back[1].name(), "pause");
  EXPECT_EQ(back[1].category(), "control");
  EXPECT_EQ(back[1].source(), "csym");
  EXPECT_EQ(back[1].detail(), "kRunning -> kPaused");
  EXPECT_DOUBLE_EQ(back[1].arg_or("delta", 0), -2);
  EXPECT_EQ(back[1].duration(), des::from_seconds(0.125));
}

TEST(ChromeJson, RoundTripIsExactToOneNanosecond) {
  TraceSink sink(4);
  // Odd nanosecond values exercise the us <-> ns conversion precision.
  sink.span("s", "c", "src", 0, 123456789, 987654321);
  std::vector<SpanRecord> back;
  ASSERT_TRUE(from_chrome_json(to_chrome_json(sink), &back));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].start, 123456789);
  EXPECT_EQ(back[0].end, 987654321);
}

TEST(ChromeJson, MultiSinkExportSeparatesProcesses) {
  TraceSink a(4), b(4);
  a.span("s", "c", "alpha", 0, 0, 10);
  b.span("s", "c", "beta", 0, 0, 20);
  const std::string json =
      to_chrome_json(std::vector<const TraceSink*>{&a, &b});
  // Both spans survive the merge with their sources intact.
  std::vector<SpanRecord> back;
  ASSERT_TRUE(from_chrome_json(json, &back));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].source(), "alpha");
  EXPECT_EQ(back[1].source(), "beta");
  // And the raw JSON carries two distinct pids.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
}

TEST(ChromeJson, AcceptsBareEventArrayForm) {
  // Some tools emit the events array without the wrapping object; the
  // importer accepts both (the exporter itself emits the object form).
  const std::string bare =
      "[{\"name\":\"s\",\"cat\":\"c\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":0,\"dur\":1000,\"args\":{\"step\":2}}]";
  std::vector<SpanRecord> back;
  ASSERT_TRUE(from_chrome_json(bare, &back));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].step, 2u);
  EXPECT_EQ(back[0].duration(), des::from_seconds(0.001));
}

TEST(ChromeJson, RejectsMalformedInput) {
  std::vector<SpanRecord> back;
  std::string err;
  EXPECT_FALSE(from_chrome_json("not json", &back, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(from_chrome_json("{\"no\":\"events\"}", &back, &err));
  EXPECT_FALSE(from_chrome_json("", &back, &err));
}

// --------------------------------------------------------------- json parser

TEST(Json, ParsesScalarsAndContainers) {
  json::Value v;
  ASSERT_TRUE(json::parse("{\"a\":[1,2.5,-3e2],\"b\":\"x\",\"c\":true,"
                          "\"d\":null}",
                          &v));
  ASSERT_TRUE(v.is_object());
  const json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300);
  EXPECT_EQ(v.str_or("b"), "x");
  EXPECT_TRUE(v.find("c")->boolean);
  EXPECT_EQ(v.find("d")->type, json::Value::Type::kNull);
  EXPECT_DOUBLE_EQ(v.num_or("missing", 42), 42);
}

TEST(Json, EscapesRoundTripThroughParser) {
  const std::string raw = "a\"b\\c\n\t\x01z";
  const std::string quoted = "\"" + json::escape(raw) + "\"";
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(quoted, &v, &err)) << err;
  EXPECT_EQ(v.str, raw);
}

TEST(Json, ParsesUnicodeEscapes) {
  json::Value v;
  ASSERT_TRUE(json::parse("\"\\u0041\\u00e9\"", &v));
  EXPECT_EQ(v.str, "A\xc3\xa9");
}

TEST(Json, CombinesSurrogatePairsIntoOneCodePoint) {
  json::Value v;
  std::string err;
  // U+1F600 GRINNING FACE as the surrogate pair D83D DE00: one 4-byte
  // UTF-8 sequence, not two 3-byte WTF-8 surrogate encodings.
  ASSERT_TRUE(json::parse("\"\\uD83D\\uDE00\"", &v, &err)) << err;
  EXPECT_EQ(v.str, "\xf0\x9f\x98\x80");
  // Lowercase hex and surrounding text both survive.
  ASSERT_TRUE(json::parse("\"a\\ud83d\\ude00z\"", &v, &err)) << err;
  EXPECT_EQ(v.str, "a\xf0\x9f\x98\x80z");
  // U+10FFFF, the last code point, through the pair DBFF DFFF.
  ASSERT_TRUE(json::parse("\"\\uDBFF\\uDFFF\"", &v, &err)) << err;
  EXPECT_EQ(v.str, "\xf4\x8f\xbf\xbf");
}

TEST(Json, SupplementaryPlaneRoundTripsThroughEscape) {
  // escape() emits raw UTF-8 bytes for non-ASCII; the decoded parse result
  // must be byte-identical to the original for astral-plane input.
  const std::string raw = "emoji \xf0\x9f\x98\x80 and text";
  const std::string quoted = "\"" + json::escape(raw) + "\"";
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(quoted, &v, &err)) << err;
  EXPECT_EQ(v.str, raw);
}

TEST(Json, RejectsUnpairedSurrogates) {
  json::Value v;
  std::string err;
  // A high surrogate with no low surrogate after it.
  EXPECT_FALSE(json::parse("\"\\uD83D\"", &v, &err));
  EXPECT_NE(err.find("surrogate"), std::string::npos) << err;
  // High surrogate followed by a non-surrogate escape.
  EXPECT_FALSE(json::parse("\"\\uD83D\\u0041\"", &v, &err));
  // High surrogate followed by plain text.
  EXPECT_FALSE(json::parse("\"\\uD83Dxy\"", &v, &err));
  // A lone low surrogate.
  EXPECT_FALSE(json::parse("\"\\uDE00\"", &v, &err));
  EXPECT_NE(err.find("surrogate"), std::string::npos) << err;
  // Truncated escape inside a would-be pair.
  EXPECT_FALSE(json::parse("\"\\uD83D\\uDE\"", &v, &err));
}

TEST(Json, RejectsMalformedAndTrailingGarbage) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse("{\"a\":}", &v, &err));
  EXPECT_FALSE(json::parse("[1,2", &v, &err));
  EXPECT_FALSE(json::parse("\"unterminated", &v, &err));
  EXPECT_FALSE(json::parse("1 2", &v, &err));
  EXPECT_FALSE(json::parse("", &v, &err));
  EXPECT_FALSE(err.empty());
}

// ------------------------------------------------------------------- metrics

TEST(Metrics, HistogramBucketsAndMoments) {
  Histogram h({1.0, 5.0});
  h.observe(0.5);
  h.observe(3);
  h.observe(4);
  h.observe(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.5);
  EXPECT_DOUBLE_EQ(h.mean(), 107.5 / 4);
  ASSERT_EQ(h.counts().size(), 3u);  // two bounds + +Inf
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
}

TEST(Metrics, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("ioc_samples_total", "kind=\"latency\"", "Samples ingested.")
      .inc(3);
  reg.gauge("ioc_queue_depth", "container=\"bonds\"").set(5);
  auto& h = reg.histogram("ioc_span_seconds", "container=\"bonds\"",
                          "Span durations.", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3);
  h.observe(100);

  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP ioc_samples_total Samples ingested."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ioc_samples_total counter"), std::string::npos);
  EXPECT_NE(text.find("ioc_samples_total{kind=\"latency\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ioc_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("ioc_queue_depth{container=\"bonds\"} 5"),
            std::string::npos);
  // Histogram buckets are cumulative and close with +Inf, _sum, _count.
  EXPECT_NE(
      text.find("ioc_span_seconds_bucket{container=\"bonds\",le=\"1\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("ioc_span_seconds_bucket{container=\"bonds\",le=\"5\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("ioc_span_seconds_bucket{container=\"bonds\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("ioc_span_seconds_sum{container=\"bonds\"} 103.5"),
            std::string::npos);
  EXPECT_NE(text.find("ioc_span_seconds_count{container=\"bonds\"} 3"),
            std::string::npos);
}

TEST(Metrics, RegistryReturnsSameSeriesOnRelookup) {
  MetricsRegistry reg;
  Counter& a = reg.counter("c", "x=\"1\"");
  a.inc();
  Counter& b = reg.counter("c", "x=\"1\"");
  EXPECT_EQ(&a, &b);
  EXPECT_DOUBLE_EQ(b.value(), 1);
  Counter& other = reg.counter("c", "x=\"2\"");
  EXPECT_NE(&a, &other);
}

// The loop fmt() ran before it moved to std::to_chars: the oracle its text
// must match byte for byte.
std::string printf_fmt(double v) {
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(Metrics, FmtPrintsWhatThePrintfLoopPrinted) {
  std::size_t checked = 0;
  std::size_t differ = 0;
  const auto check = [&](double v) {
    ++checked;
    const std::string got = fmt(v);
    const std::string want = printf_fmt(v);
    if (got != want && ++differ <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": fmt \"" << got
                    << "\", printf loop \"" << want << "\"";
    }
  };
  using limits = std::numeric_limits<double>;
  // Signed zeros, the ends of the subnormal and normal ranges, infinity,
  // where %g turns to exponent form, and the histogram bounds.
  for (double v : {0.0, 1e-5, 1e-4, 1e15, 1e16, 1e17, 1e21, 1e22,
                   limits::denorm_min(), limits::min(), limits::max(),
                   limits::epsilon(), limits::infinity()}) {
    check(v);
    check(-v);
  }
  for (double b : Histogram::default_latency_bounds()) check(b);

  std::mt19937_64 rng(20261019);
  const auto from_bits = [](std::uint64_t u) {
    double v;
    std::memcpy(&v, &u, sizeof v);
    return v;
  };
  // Random finite bit patterns: every exponent, mostly 17-digit texts.
  for (int i = 0; i < 40'000; ++i) {
    double v;
    do {
      v = from_bits(rng());
    } while (!std::isfinite(v));
    check(v);
  }
  // Subnormals: a zero exponent field under a random sign and mantissa.
  for (int i = 0; i < 20'000; ++i) {
    check(from_bits(rng() & 0x800fffffffffffffull));
  }
  // What a scrape holds: latencies in seconds and their running sums at
  // full precision, then counts and millisecond-resolution latencies,
  // which print short (the printf loop finds those in a few tries, so
  // they make up the bulk of the million).
  std::uniform_real_distribution<double> seconds(0, 300);
  double sum = 0;
  for (int i = 0; i < 40'000; ++i) {
    const double s = seconds(rng);
    sum += s;
    check(s);
    check(sum);
  }
  for (int i = 0; i < 460'000; ++i) {
    check(static_cast<double>(i));
    check(std::round(seconds(rng) * 1e3) / 1e3);
  }
  EXPECT_EQ(differ, 0u);
  EXPECT_GE(checked, 1'000'000u);
}

// ------------------------------------------------------------ overhead guard

TEST(Overhead, DisabledHotPathAllocatesNothing) {
  // The production pattern: a null sink (tracing off) guarded by
  // trace::active. The guard must be the whole cost — zero allocations.
  TraceSink* no_sink = nullptr;
  TraceSink off(16);
  off.set_enabled(false);

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 10000; ++i) {
    if (active(no_sink)) {
      no_sink->span("step", "container", "bonds", 0, 0, 1,
                    {{"queue_depth", 1}});
    }
    if (active(&off)) {
      off.span("step", "container", "bonds", 0, 0, 1, {{"queue_depth", 1}});
    }
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(off.size(), 0u);
}

TEST(Overhead, EnabledSteadyStateIsAllocationFreeForShortNames) {
  // Ring slots are preallocated and short strings stay in SSO storage, so
  // once every slot has been touched, recording allocates nothing.
  TraceSink sink(32);
  for (int i = 0; i < 64; ++i) {
    sink.span("step", "container", "bonds", 0, i, i + 1,
              {{"queue_depth", 1}, {"bytes", 2}});
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 10000; ++i) {
    sink.span("step", "container", "bonds", 0, i, i + 1,
              {{"queue_depth", 1}, {"bytes", 2}});
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace ioc::trace
