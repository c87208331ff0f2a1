#include "bench_lib.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace stepbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanksAndCountsSamples) {
  const auto p50 = percentile({4.0, 1.0, 3.0, 2.0}, 50);
  EXPECT_DOUBLE_EQ(p50.value, 2.5);
  EXPECT_EQ(p50.samples, 4u);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90).value,
                   10.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 90).value, 7.0);
  EXPECT_EQ(percentile({7.0}, 90).samples, 1u);
  EXPECT_DOUBLE_EQ(percentile({1.0, 5.0}, 0).value, 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 5.0}, 100).value, 5.0);
}

TEST(Percentile, RejectsNoSamplesAndBadRanks) {
  EXPECT_THROW(percentile({}, 50), dct::CheckError);
  EXPECT_THROW(percentile({1.0}, 101), dct::CheckError);
}

// Expected values from Python: statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_EQ(q.samples, 10u);
  EXPECT_DOUBLE_EQ(q.relative_spread(), 5.5 / 5.5);

  const auto two = quartiles({10.0, 2.0});
  // Python extrapolates past the data for tiny samples.
  EXPECT_DOUBLE_EQ(two.q1, 0.0);
  EXPECT_DOUBLE_EQ(two.median, 6.0);
  EXPECT_DOUBLE_EQ(two.q3, 12.0);

  const auto five = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
  EXPECT_THROW(quartiles({1.0}), dct::CheckError);
}

TEST(FastestHalf, KeepsTheFastestHalfOfBlocksInStepOrder) {
  const auto block = [](std::size_t steps, double wall_s) {
    Block b;
    b.steps = steps;
    b.wall_s = wall_s;
    return b;
  };
  // Mean step times: 10, 5, 6, 5, 30 ms.
  const std::vector<Block> blocks = {block(50, 0.5), block(100, 0.5),
                                     block(80, 0.48), block(100, 0.5),
                                     block(10, 0.3)};
  EXPECT_EQ(fastest_half(blocks), (std::vector<std::size_t>{1, 2, 3}));
  // Ties keep the earliest blocks.
  const std::vector<Block> flat(4, block(10, 0.1));
  EXPECT_EQ(fastest_half(flat), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(fastest_half({block(1, 0.5)}), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(fastest_half({}).empty());
}

dct::obs::MetricsSnapshot snapshot(
    std::vector<std::pair<std::string, std::uint64_t>> rows) {
  dct::obs::MetricsSnapshot s;
  for (auto& [name, value] : rows) s.counters.push_back({name, value});
  return s;
}

TEST(Counters, SelectKeepsOnlyNamedPrefixes) {
  const auto set = select_counters(
      snapshot({{"simmpi.bytes_sent", 10}, {"fault.injected", 3},
                {"kernels.gemm_flops", 7}}),
      {"simmpi.", "kernels."});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(count_of(set, "simmpi.bytes_sent"), 10u);
  EXPECT_EQ(count_of(set, "kernels.gemm_flops"), 7u);
  EXPECT_EQ(count_of(set, "fault.injected"), 0u);
}

TEST(Counters, DeltaCountsNewCountersFromZeroAndRejectsGoingBackwards) {
  const CounterSet before = {{"simmpi.bytes_sent", 100}};
  const CounterSet after = {{"simmpi.bytes_sent", 160},
                            {"comm.buckets_reduced", 4}};
  const auto d = counter_delta(before, after);
  EXPECT_EQ(count_of(d, "simmpi.bytes_sent"), 60u);
  EXPECT_EQ(count_of(d, "comm.buckets_reduced"), 4u);
  EXPECT_THROW(counter_delta(after, before), dct::CheckError);
}

TEST(Counters, SubtractRemovesFenceOverhead) {
  const CounterSet window = {{"simmpi.messages_sent", 390}};
  const CounterSet fences = {{"simmpi.messages_sent", 6}};
  EXPECT_EQ(count_of(subtract(window, fences), "simmpi.messages_sent"), 384u);
  EXPECT_THROW(subtract(fences, window), dct::CheckError);
}

RunOutputs identical_replicas(float loss) {
  RunOutputs out;
  out.params = {{1.0f, 2.0f}, {1.0f, 2.0f}, {1.0f, 2.0f}};
  out.final_loss = loss;
  out.check_loss = loss;
  return out;
}

TEST(CheckOutputs, PassesIdenticalReplicasAndMatchingReference) {
  const auto out = identical_replicas(0.5f);
  EXPECT_EQ(check_outputs(out, std::nullopt), "");
  EXPECT_EQ(check_outputs(out, float_bits(0.5f)), "");
}

TEST(CheckOutputs, WrongReferenceLossFails) {
  const auto out = identical_replicas(0.5f);
  EXPECT_NE(check_outputs(out, float_bits(0.5f) + 1), "");
  EXPECT_NE(check_outputs(out, float_bits(0.25f)), "");
}

TEST(CheckOutputs, DivergedReplicaOrNonFiniteLossFails) {
  auto diverged = identical_replicas(0.5f);
  diverged.params[2][1] = std::nextafter(2.0f, 3.0f);
  EXPECT_NE(check_outputs(diverged, std::nullopt), "");
  EXPECT_NE(check_outputs(identical_replicas(
                              std::numeric_limits<float>::quiet_NaN()),
                          std::nullopt),
            "");
  EXPECT_NE(check_outputs(identical_replicas(
                              std::numeric_limits<float>::infinity()),
                          std::nullopt),
            "");
}

dct::obs::ReportEvent span(std::string name, std::string cat, int tid,
                           double ts_us, double dur_us) {
  dct::obs::ReportEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.rank = 0;
  e.tid = tid;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  return e;
}

TEST(SelfTime, SubtractsNestedSpansOfTheSameThreadAndCategory) {
  const std::vector<dct::obs::ReportEvent> events = {
      span("forward_backward", "phase", 1, 0, 1000),
      span("inner", "phase", 1, 100, 200),
      span("inner2", "phase", 1, 250, 100),    // overlaps "inner"
      span("other", "simmpi", 1, 500, 100),    // another category
      span("worker", "phase", 2, 0, 500),      // another thread
      span("forward_backward", "phase", 1, 2000, 500),
  };
  const auto ms = self_times_ms(events, 0, "forward_backward", "phase");
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_DOUBLE_EQ(ms[0], 0.75);  // 1000 us minus the 250 us union
  EXPECT_DOUBLE_EQ(ms[1], 0.5);
  EXPECT_TRUE(self_times_ms(events, 1, "forward_backward", "phase").empty());
}

TEST(SpanRecorder, RecordsParentsStepsAndDurations) {
  SpanRecorder rec;
  const int parent = rec.begin("replay");
  const int child = rec.begin("replay.dpt", parent, 3);
  rec.end(child);
  rec.end(parent);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, parent);
  EXPECT_EQ(rec.spans()[1].step, 3);
  EXPECT_GE(rec.spans()[1].end_ns, rec.spans()[1].start_ns);
  EXPECT_EQ(rec.durations_ms("replay.dpt").size(), 1u);
}

}  // namespace
}  // namespace stepbench
