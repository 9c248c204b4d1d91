// Tests of the benchmark itself: its op sequences are seeded and exact, its
// single-client workloads repeat bit for bit over the very op windows the
// benchmark scores, and its span tooling computes self times and shares
// correctly and round-trips through the span file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "op_sequences.h"
#include "spans.h"

namespace perfbench {
namespace {

// A benchmark run of exactly the scored ops (seconds = 0), set-ups included.
RunResult RunExactly(const std::string& workload, uint64_t seed) {
  RunConfig config;
  config.workload = workload;
  config.seed = seed;
  config.seconds = 0.0;
  return RunWorkload(config);
}

// The first run of (workload, seed) in this process, shared by the tests.
const RunResult& FirstRun(const std::string& workload, uint64_t seed) {
  static std::map<std::pair<std::string, uint64_t>, RunResult> runs;
  const auto key = std::make_pair(workload, seed);
  auto it = runs.find(key);
  if (it == runs.end()) it = runs.emplace(key, RunExactly(workload, seed)).first;
  return it->second;
}

int64_t ScoredOps(const std::string& workload) {
  return workload == "query_loop" ? 16000 : 1275000;
}

// The values that must repeat exactly for one seed and op count.
std::vector<double> ExactValues(const RunResult& r) {
  return {r.end_to_end.Get("nae"),
          r.end_to_end.Get("udf_cost_us_per_row"),
          r.end_to_end.Get("ok_frac"),
          static_cast<double>(r.attempted),
          static_cast<double>(r.failed),
          r.per_layer.Get("quadtree.compressions_per_op"),
          r.per_layer.Get("quadtree.nodes"),
          r.per_layer.Get("executor.evals_per_row"),
          r.per_layer.Get("storage.buffer_hit_rate")};
}

class SingleClientWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(SingleClientWorkload, SameSeedRepeatsBitForBit) {
  const RunResult& a = FirstRun(GetParam(), 7);
  const RunResult b = RunExactly(GetParam(), 7);
  EXPECT_TRUE(a.correct);
  EXPECT_EQ(a.attempted, ScoredOps(GetParam()));
  EXPECT_GT(a.end_to_end.Get("nae"), 0.0);
  EXPECT_EQ(ExactValues(a), ExactValues(b));
}

TEST_P(SingleClientWorkload, SecondSeedChangesValuesButStaysCorrect) {
  const RunResult& a = FirstRun(GetParam(), 7);
  const RunResult b = RunExactly(GetParam(), 8);
  EXPECT_NE(a.end_to_end.Get("nae"), b.end_to_end.Get("nae"));
  EXPECT_NE(a.end_to_end.Get("udf_cost_us_per_row"),
            b.end_to_end.Get("udf_cost_us_per_row"));
  EXPECT_TRUE(b.correct);
  EXPECT_EQ(b.end_to_end.Get("ok_frac"), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SingleClientWorkload,
                         ::testing::Values("paper_stream", "query_loop"));

TEST(CatalogFleet, SecondSeedStaysCorrect) {
  for (uint64_t seed : {7, 8}) {
    const RunResult r = RunExactly("catalog_fleet", seed);
    EXPECT_TRUE(r.correct) << "seed " << seed;
    EXPECT_EQ(r.end_to_end.Get("ok_frac"), 1.0);
    EXPECT_EQ(r.attempted, 2 * 1000000);  // Two clients.
  }
}

TEST(OpSequences, PermutationIsASeededBijection) {
  const std::vector<uint32_t> a = SeededPermutation(512, 3);
  std::vector<uint32_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> identity(512);
  std::iota(identity.begin(), identity.end(), 0u);
  EXPECT_EQ(sorted, identity);
  EXPECT_EQ(a, SeededPermutation(512, 3));
  EXPECT_NE(a, SeededPermutation(512, 4));
  EXPECT_NE(a, identity);
}

TEST(OpSequences, FleetOpsFollowThePermutation) {
  const std::vector<uint32_t> perm = SeededPermutation(64, 1);
  const std::vector<FleetOp> ops = FleetOps(perm, 1.1, 100, 20000, 5);
  std::vector<int> hits(64, 0);
  for (const FleetOp& op : ops) {
    ASSERT_LT(op.model, 64u);
    ASSERT_LT(op.point, 100u);
    ++hits[op.model];
  }
  // Rank 1 (the hottest) is served by perm[0], and it is the hottest model.
  EXPECT_EQ(std::max_element(hits.begin(), hits.end()) - hits.begin(),
            static_cast<long>(perm[0]));
  const std::vector<FleetOp> again = FleetOps(perm, 1.1, 100, 20000, 5);
  EXPECT_TRUE(std::equal(ops.begin(), ops.end(), again.begin(),
                         [](const FleetOp& x, const FleetOp& y) {
                           return x.model == y.model && x.point == y.point &&
                                  x.passed == y.passed;
                         }));
}

Span MakeSpan(SpanName name, uint32_t parent, int64_t start, int64_t end) {
  return Span{static_cast<uint32_t>(name), parent, 1, start, end};
}

// op [0,100] > predict [10,30], execute [40,90] > udf [45,55], udf [60,80]
SpanBuffer HandBuiltTree() {
  return {MakeSpan(SpanName::kOp, kNoParent, 0, 100),
          MakeSpan(SpanName::kCatalogPredict, 0, 10, 30),
          MakeSpan(SpanName::kExecutorExecute, 0, 40, 90),
          MakeSpan(SpanName::kUdfExecute, 2, 45, 55),
          MakeSpan(SpanName::kUdfExecute, 2, 60, 80)};
}

TEST(Spans, SelfTimesSubtractChildCoverage) {
  EXPECT_EQ(SelfTimes(HandBuiltTree()),
            (std::vector<int64_t>{30, 20, 20, 10, 20}));
  // Overlapping children count their union once.
  const SpanBuffer overlapping = {
      MakeSpan(SpanName::kOp, kNoParent, 0, 100),
      MakeSpan(SpanName::kUdfExecute, 0, 10, 50),
      MakeSpan(SpanName::kUdfExecute, 0, 30, 70)};
  EXPECT_EQ(SelfTimes(overlapping)[0], 40);
}

TEST(Spans, SummariesAndLayerShares) {
  const std::vector<SpanBuffer> buffers = {HandBuiltTree(), HandBuiltTree()};
  const SpanSummary execute = Summarize(buffers, SpanName::kExecutorExecute);
  EXPECT_EQ(execute.durations, (std::vector<int64_t>{50, 50}));
  EXPECT_EQ(execute.total_ns, 100);
  EXPECT_EQ(execute.self_ns, 40);
  EXPECT_DOUBLE_EQ(LayerShare(buffers, SpanName::kUdfExecute), 0.3);
  EXPECT_DOUBLE_EQ(LayerShare(buffers, SpanName::kCatalogPredict), 0.2);
  EXPECT_DOUBLE_EQ(LayerShare(buffers, SpanName::kCatalogTick), 0.0);
}

TEST(Spans, RecordedScopesNestUnderTheRequest) {
  SpanBuffer buffer;
  BeginRequest(&buffer, 42, NowNs());
  {
    SpanScope outer(SpanName::kExecutorExecute);
    SpanScope inner(SpanName::kUdfExecute);
  }
  EndRequest(NowNs());
  { SpanScope untraced(SpanName::kUdfExecute); }  // Outside any request.
  ASSERT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer[1].parent, 0u);
  EXPECT_EQ(buffer[2].parent, 1u);
  for (const Span& s : buffer) {
    EXPECT_EQ(s.request, 42u);
    EXPECT_GE(s.end_ns, s.start_ns);
  }
  EXPECT_GE(buffer[2].start_ns, buffer[1].start_ns);
  EXPECT_LE(buffer[2].end_ns, buffer[1].end_ns);
}

TEST(Spans, FileReadsBackIntact) {
  const std::string path = ::testing::TempDir() + "/perfbench_spans.bin";
  const std::vector<SpanBuffer> written = {HandBuiltTree(), {}, HandBuiltTree()};
  ASSERT_TRUE(WriteSpanFile(path, written));
  std::vector<SpanBuffer> read;
  ASSERT_TRUE(ReadSpanFile(path, &read));
  EXPECT_EQ(read, written);

  // A truncated file is rejected, not half-read.
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  EXPECT_FALSE(ReadSpanFile(path, &read));
  std::remove(path.c_str());
}

TEST(Quantiles, HistogramAndSampleAgree) {
  LatencyHistogram histogram;
  std::vector<int64_t> sample;
  for (int64_t v = 1; v <= 5000; ++v) {
    histogram.Record(v * 3);
    sample.push_back(v * 3);
  }
  EXPECT_DOUBLE_EQ(SampleQuantile(sample, 0.5), 7500.0);
  EXPECT_NEAR(histogram.Quantile(0.5), 7500.0, 7500.0 * 1e-3);
  EXPECT_DOUBLE_EQ(SampleQuantile(sample, 0.99), 14850.0);
  EXPECT_NEAR(histogram.Quantile(0.99), 14850.0, 14850.0 * 1e-3);
  // A p99 needs at least ten samples above it.
  sample.resize(999);
  EXPECT_EQ(SampleQuantile(sample, 0.99), 0.0);
}

// Eight full windows and a partial ninth: the timings come from the two
// full windows with the slowest median op (here the last two full ones,
// not the two with the fewest ops), never from the partial one.
TEST(Windows, TimingsComeFromTheSlowestQuarter) {
  const int64_t ops[] = {900, 400, 800, 700, 300, 600, 1000, 500, 10};
  std::vector<Window> windows(std::size(ops));
  for (size_t w = 0; w < windows.size(); ++w) {
    windows[w].ops = ops[w];
    for (int64_t k = 0; k < ops[w]; ++k) {
      windows[w].latency.Record(static_cast<int64_t>(w + 1) * 100);
    }
  }
  const SlowSpell slow = SlowestWindows(windows, 8 * kWindowNs + kWindowNs / 2);
  EXPECT_EQ(slow.full, 8u);
  EXPECT_EQ(slow.used, 2u);  // Windows 7 (800 ns) and 6 (700 ns).
  EXPECT_DOUBLE_EQ(slow.ops_per_s, 1500.0 / (2.0 * kWindowNs * 1e-9));
  EXPECT_DOUBLE_EQ(slow.latency.Quantile(0.0), 700.0);
  EXPECT_DOUBLE_EQ(slow.latency.Quantile(1.0), 800.0);

  // A run shorter than one window is taken whole.
  const SlowSpell whole = SlowestWindows({windows[0]}, kWindowNs / 2);
  EXPECT_EQ(whole.full, 0u);
  EXPECT_DOUBLE_EQ(whole.ops_per_s, 900.0 / (0.5 * kWindowNs * 1e-9));
  EXPECT_DOUBLE_EQ(whole.latency.Quantile(0.5), 100.0);
}

}  // namespace
}  // namespace perfbench
