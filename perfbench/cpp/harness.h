#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

// The benchmark run loop: runs one workload's set-up several times, then a
// closed-loop measured phase on the workload's clients, and gathers the
// end-to-end and per-layer metrics. Workloads plug in through Workload.
namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Log-linear histogram of nanosecond latencies: exact below 1024 ns, then
// 1024 sub-buckets per power of two (0.1% relative resolution). Fixed size
// (112 KiB) and allocated up front, so recording never allocates.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Record(int64_t ns);
  void Merge(const LatencyHistogram& other);
  // Smallest recorded value v with at least q * count() samples <= v
  // (bucket midpoint); 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<uint32_t> buckets_;
  int64_t count_ = 0;
};

// The measured phase is cut into windows of this length, by the time each
// op ends.
constexpr int64_t kWindowNs = 1'000'000'000;
// The timing metrics come from the slowest 1/kSlowShareDenominator of the
// full windows (rounded up).
constexpr size_t kSlowShareDenominator = 4;

// The ops that ended in one window and their latencies.
struct Window {
  int64_t ops = 0;
  LatencyHistogram latency;
};

// The run's slowest spell: its full windows whose median op took longest.
struct SlowSpell {
  size_t full = 0;  // Full windows in the run.
  size_t used = 0;  // The slowest of them, whose ops make up the spell.
  double ops_per_s = 0.0;
  LatencyHistogram latency;  // Of the spell's ops.
};

// The host's speed swings between slow and fast spells lasting seconds; the
// slow spells' speed varies less from run to run than the share of the run
// the fast ones take. So ops_per_s and the latencies are taken over the
// slowest quarter of the run's full windows (those that end before
// `elapsed_ns`), ranked by their median op latency. The median, not the op
// count, ranks them because with two clients a host pause of one client's
// CPU while it holds a lock stalls both, which cuts a window's ops without
// making its typical op slower. A run shorter than one window is taken
// whole.
SlowSpell SlowestWindows(const std::vector<Window>& windows,
                         int64_t elapsed_ns);

// Exact quantile of a sample (same rank rule as LatencyHistogram). Returns
// 0 for q = 0.99 when fewer than 1000 values exist (fewer than ten samples
// would lie above it), and 0 for an empty sample.
double SampleQuantile(std::vector<int64_t> values, double q);

// Peak resident set size of this process (VmHWM) in MB.
double PeakRssMb();

// Seed mixing for sub-streams derived from --seed (splitmix64 finalizer).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// Named metrics in a fixed, canonical order. Every metric the benchmark can
// report is declared in harness.cc; a workload sets the ones its layers
// exercise and the rest read 0 (the layer does no work on that workload).
class MetricSet {
 public:
  enum class Kind { kEndToEnd, kPerLayer };
  explicit MetricSet(Kind kind);

  void Set(std::string_view name, double value);
  double Get(std::string_view name) const;

  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    bool set = false;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  Metric& Find(std::string_view name);
  const Metric& Find(std::string_view name) const;
  std::vector<Metric> metrics_;
};

// One workload instance: its set-up happens in the factory, so timing the
// factory times set-up. Clients run ops concurrently; RunOp is called only
// from client `client`'s own thread.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  // Ops per client whose accuracy is scored (nae, udf_cost_us_per_row).
  // The measured phase always runs at least this many ops per client, so
  // the scored values do not depend on how fast the host is.
  virtual int64_t scored_ops() const = 0;
  // Traced runs trace every trace_every()-th op of each client.
  virtual int64_t trace_every() const = 0;
  // Called once, after the last set-up and right before the measured phase.
  virtual void BeginMeasured() {}
  // Runs measured op `i` of `client`; false when its output check fails.
  virtual bool RunOp(int client, int64_t i) = 0;
  // End-of-run output checks (after all clients stopped); false means
  // every op's output is suspect.
  virtual bool FinalCheck() = 0;
  // Sets the workload's own end-to-end metrics (nae, udf_cost_us_per_row)
  // and the per-layer counters read from the library's stats accessors.
  virtual void Collect(int64_t measured_ops, MetricSet& end_to_end,
                       MetricSet& per_layer) = 0;
};

// Builds (sets up) a workload by name from --seed; nullptr for an unknown
// name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed);
bool IsWorkload(std::string_view name);

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Wall time of the measured phase; 0 runs exactly the scored ops.
  double seconds = 10.0;
  bool trace = false;
  // Traced runs write their spans here when non-empty.
  std::string span_out;
};

struct RunResult {
  bool correct = false;
  // The first set-up of the run, in a process that has not set up before
  // (setup_s is the median over all of them).
  double cold_setup_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricSet end_to_end{MetricSet::Kind::kEndToEnd};
  MetricSet per_layer{MetricSet::Kind::kPerLayer};
};

RunResult RunWorkload(const RunConfig& config);

// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// with the end-to-end metrics, or the per-layer ones when `per_layer`.
std::string ResultJson(const RunResult& result, bool per_layer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
