#include <gtest/gtest.h>

#include "mon/hub.h"
#include "mon/metric.h"

namespace ioc::mon {
namespace {

MetricSample lat(const std::string& src, double v, std::uint64_t step = 0) {
  MetricSample s;
  s.source = src;
  s.kind = MetricKind::kLatency;
  s.step = step;
  s.value = v;
  return s;
}

TEST(Hub, WindowedAverageLatency) {
  MonitoringHub hub(3);
  hub.ingest(lat("bonds", 10));
  hub.ingest(lat("bonds", 20));
  hub.ingest(lat("bonds", 30));
  EXPECT_DOUBLE_EQ(hub.avg_latency("bonds").value(), 20.0);
  hub.ingest(lat("bonds", 60));  // window slides: 20,30,60
  EXPECT_NEAR(hub.avg_latency("bonds").value(), 110.0 / 3, 1e-12);
  EXPECT_FALSE(hub.avg_latency("unknown").has_value());
  EXPECT_EQ(hub.samples_seen(), 4u);
}

TEST(Hub, BottleneckIsMaxAverage) {
  MonitoringHub hub(4);
  hub.ingest(lat("helper", 2));
  hub.ingest(lat("bonds", 25));
  hub.ingest(lat("csym", 7));
  EXPECT_EQ(hub.bottleneck().value(), "bonds");
}

TEST(Hub, BottleneckEmptyWhenNoData) {
  MonitoringHub hub;
  EXPECT_FALSE(hub.bottleneck().has_value());
}

TEST(Hub, LastValuePerKind) {
  MonitoringHub hub;
  MetricSample q;
  q.source = "bonds";
  q.kind = MetricKind::kQueueDepth;
  q.value = 12;
  hub.ingest(q);
  hub.ingest(lat("bonds", 3));
  EXPECT_DOUBLE_EQ(hub.last_value("bonds", MetricKind::kQueueDepth).value(),
                   12);
  EXPECT_DOUBLE_EQ(hub.last_value("bonds", MetricKind::kLatency).value(), 3);
  // Never-reported kinds and unknown containers are distinguishable from a
  // measured 0.
  EXPECT_FALSE(hub.last_value("bonds", MetricKind::kThroughput).has_value());
  EXPECT_FALSE(hub.last_value("nope", MetricKind::kLatency).has_value());
  // Queue-depth samples do not pollute the latency window.
  EXPECT_DOUBLE_EQ(hub.avg_latency("bonds").value(), 3.0);
}

TEST(Hub, LastValueZeroIsSeen) {
  MonitoringHub hub;
  MetricSample q;
  q.source = "bonds";
  q.kind = MetricKind::kQueueDepth;
  q.value = 0;
  hub.ingest(q);
  ASSERT_TRUE(hub.last_value("bonds", MetricKind::kQueueDepth).has_value());
  EXPECT_DOUBLE_EQ(hub.last_value("bonds", MetricKind::kQueueDepth).value(),
                   0);
}

TEST(Hub, ResetClearsWindowAfterManagementAction) {
  MonitoringHub hub(4);
  hub.ingest(lat("bonds", 100));
  hub.ingest(lat("bonds", 100));
  hub.reset_container("bonds");
  EXPECT_FALSE(hub.avg_latency("bonds").has_value());
  hub.ingest(lat("bonds", 5));
  EXPECT_DOUBLE_EQ(hub.avg_latency("bonds").value(), 5.0);
}

TEST(Hub, HistoryFilterable) {
  MonitoringHub hub;
  hub.ingest(lat("a", 1, 0));
  hub.ingest(lat("b", 2, 0));
  hub.ingest(lat("a", 3, 1));
  auto ha = hub.history_for("a", MetricKind::kLatency);
  ASSERT_EQ(ha.size(), 2u);
  EXPECT_DOUBLE_EQ(ha[1].value, 3);
  EXPECT_EQ(hub.history().size(), 3u);
}

TEST(Hub, HistoryCanBeDisabled) {
  MonitoringHub hub(8, /*keep_history=*/false);
  hub.ingest(lat("a", 1));
  EXPECT_TRUE(hub.history().empty());
  EXPECT_DOUBLE_EQ(hub.avg_latency("a").value(), 1.0);
}

TEST(Hub, LatencyWindowCountTracksWindowAndResets) {
  MonitoringHub hub(3);
  EXPECT_EQ(hub.latency_window_count("bonds"), 0u);
  hub.ingest(lat("bonds", 1));
  hub.ingest(lat("bonds", 2));
  EXPECT_EQ(hub.latency_window_count("bonds"), 2u);
  hub.ingest(lat("bonds", 3));
  hub.ingest(lat("bonds", 4));  // window slides, stays at capacity
  EXPECT_EQ(hub.latency_window_count("bonds"), 3u);
  hub.reset_container("bonds");
  EXPECT_EQ(hub.latency_window_count("bonds"), 0u);
}

TEST(Hub, MetricsRegistryAggregatesWholeRun) {
  MonitoringHub hub(2);
  hub.ingest(lat("bonds", 0.2));
  hub.ingest(lat("bonds", 4.0));
  MetricSample q;
  q.source = "bonds";
  q.kind = MetricKind::kQueueDepth;
  q.value = 7;
  hub.ingest(q);
  // Management actions reset windows but never the registry aggregates.
  hub.reset_container("bonds");

  const std::string prom = hub.prometheus();
  EXPECT_NE(prom.find("ioc_samples_total{kind=\"latency\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("ioc_samples_total{kind=\"queue-depth\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("ioc_queue_depth{container=\"bonds\"} 7"),
            std::string::npos);
  EXPECT_NE(prom.find("ioc_container_latency_seconds_count"
                      "{container=\"bonds\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("ioc_container_latency_seconds_sum"
                      "{container=\"bonds\"} 4.2"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE ioc_container_latency_seconds histogram"),
            std::string::npos);
}

TEST(Hub, KindOutsideTheEnumIsCountedUnderQuestionMark) {
  // A sample decoded off the wire may carry any kind byte: it is counted
  // and remembered, and feeds no latency window, histogram or gauge.
  MonitoringHub hub;
  MetricSample odd;
  odd.source = "bonds";
  odd.kind = static_cast<MetricKind>(200);
  odd.value = 9;
  hub.ingest(odd);
  EXPECT_EQ(hub.samples_seen(), 1u);
  EXPECT_DOUBLE_EQ(hub.last_value("bonds", odd.kind).value(), 9);
  EXPECT_FALSE(hub.avg_latency("bonds").has_value());
  EXPECT_EQ(hub.prometheus(),
            "# HELP ioc_samples_total Monitoring samples ingested by the "
            "hub.\n"
            "# TYPE ioc_samples_total counter\n"
            "ioc_samples_total{kind=\"?\"} 1\n");
}

TEST(MetricKindNames, AllNamed) {
  EXPECT_STREQ(metric_kind_name(MetricKind::kLatency), "latency");
  EXPECT_STREQ(metric_kind_name(MetricKind::kQueueDepth), "queue-depth");
  EXPECT_STREQ(metric_kind_name(MetricKind::kThroughput), "throughput");
  EXPECT_STREQ(metric_kind_name(MetricKind::kEndToEnd), "end-to-end");
}

TEST(Hub, BottleneckSwitchesAsWindowsEvolve) {
  MonitoringHub hub(2);
  hub.ingest(lat("a", 30));
  hub.ingest(lat("b", 10));
  EXPECT_EQ(hub.bottleneck().value(), "a");
  // b degrades past a's window.
  hub.ingest(lat("b", 50));
  hub.ingest(lat("b", 60));
  EXPECT_EQ(hub.bottleneck().value(), "b");
  // a's window refreshes low: still b.
  hub.ingest(lat("a", 1));
  hub.ingest(lat("a", 1));
  EXPECT_EQ(hub.bottleneck().value(), "b");
}

TEST(Hub, TieBreakIsDeterministic) {
  MonitoringHub a_first(4), b_first(4);
  a_first.ingest(lat("a", 5));
  a_first.ingest(lat("b", 5));
  b_first.ingest(lat("b", 5));
  b_first.ingest(lat("a", 5));
  // Equal averages: the same container wins regardless of arrival order
  // (map iteration order), keeping policy runs reproducible.
  EXPECT_EQ(a_first.bottleneck().value(), b_first.bottleneck().value());
}

}  // namespace
}  // namespace ioc::mon
