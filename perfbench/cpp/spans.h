#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

// In-memory span tracing for the traced benchmark run. Spans are recorded
// by the benchmark's own code around each call into a layer's public API,
// kept in a per-client buffer, and written out when the run ends.
namespace perfbench {

// The layer boundaries the benchmark records. Values index SpanNames().
enum class SpanName : uint32_t {
  kOp = 0,               // One measured op (the request root).
  kCatalogPredict,       // CostCatalog::PredictCostMicros
  kCatalogSelectivity,   // CostCatalog::PredictSelectivity
  kCatalogRecord,        // CostCatalog::RecordExecution
  kCatalogTick,          // CostCatalog::MaintenanceTick
  kOptimizerPlan,        // PlanQuery
  kExecutorExecute,      // ExecuteQuery
  kUdfExecute,           // CostedUdf::Execute
  kCount,
};

const std::vector<std::string>& SpanNames();

inline constexpr uint32_t kNoParent = 0xffffffffu;

// One span. `parent` indexes the same client's span buffer.
struct Span {
  uint32_t name = 0;
  uint32_t parent = kNoParent;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration() const { return end_ns - start_ns; }
  bool operator==(const Span&) const = default;
};

// One buffer per client thread.
using SpanBuffer = std::vector<Span>;

// Starts recording the calling thread's spans of request `request` into
// `buffer` with a root span of name kOp starting at `start_ns`; until
// EndRequest, every SpanScope on this thread records a span.
void BeginRequest(SpanBuffer* buffer, uint64_t request, int64_t start_ns);
void EndRequest(int64_t end_ns);

// Records a span around its lifetime when the thread is inside a traced
// request; otherwise costs one thread-local load.
class SpanScope {
 public:
  explicit SpanScope(SpanName name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  uint32_t index_;
};

// Self time of every span: its duration minus the part of its interval
// its child spans cover. Parallel to `buffer`.
std::vector<int64_t> SelfTimes(const SpanBuffer& buffer);

// Aggregates over all buffers for one span name.
struct SpanSummary {
  std::vector<int64_t> durations;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
SpanSummary Summarize(const std::vector<SpanBuffer>& buffers, SpanName name);

// Share of traced request time spent inside spans of `name`: their total
// duration over the total duration of the request roots (0 when none).
double LayerShare(const std::vector<SpanBuffer>& buffers, SpanName name);

// Binary span file: magic, the name table, then each buffer's spans.
bool WriteSpanFile(const std::string& path,
                   const std::vector<SpanBuffer>& buffers);
// Reads a file written by WriteSpanFile; false on a malformed file or a
// name table that differs from SpanNames().
bool ReadSpanFile(const std::string& path, std::vector<SpanBuffer>* buffers);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
