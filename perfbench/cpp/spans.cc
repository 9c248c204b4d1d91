#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "harness.h"

namespace perfbench {
namespace {

constexpr char kMagic[8] = {'M', 'L', 'Q', 'S', 'P', 'A', 'N', '1'};

// The calling thread's open request: where its spans go and which span
// encloses the next one.
struct TraceContext {
  SpanBuffer* buffer = nullptr;
  uint64_t request = 0;
  uint32_t current = kNoParent;
};
thread_local TraceContext t_context;

}  // namespace

const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "op",
      "catalog.predict",
      "catalog.selectivity",
      "catalog.record",
      "catalog.tick",
      "optimizer.plan",
      "executor.execute",
      "udf.execute",
  };
  return names;
}

void BeginRequest(SpanBuffer* buffer, uint64_t request, int64_t start_ns) {
  const auto root = static_cast<uint32_t>(buffer->size());
  buffer->push_back(Span{static_cast<uint32_t>(SpanName::kOp), kNoParent,
                         request, start_ns, 0});
  t_context = TraceContext{buffer, request, root};
}

void EndRequest(int64_t end_ns) {
  (*t_context.buffer)[t_context.current].end_ns = end_ns;
  t_context = TraceContext{};
}

SpanScope::SpanScope(SpanName name) : index_(kNoParent) {
  TraceContext& context = t_context;
  if (context.buffer == nullptr) return;
  index_ = static_cast<uint32_t>(context.buffer->size());
  context.buffer->push_back(Span{static_cast<uint32_t>(name), context.current,
                                 context.request, 0, 0});
  context.current = index_;
  (*context.buffer)[index_].start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (index_ == kNoParent) return;
  TraceContext& context = t_context;
  Span& span = (*context.buffer)[index_];
  span.end_ns = NowNs();
  context.current = span.parent;
}

std::vector<int64_t> SelfTimes(const SpanBuffer& buffer) {
  // Children are appended after their parent in start order, so one pass
  // that remembers how far each parent's interval is already covered
  // measures the union of the children's intervals.
  std::vector<int64_t> covered(buffer.size(), 0);
  std::vector<int64_t> covered_until(buffer.size(), 0);
  for (size_t i = 0; i < buffer.size(); ++i) {
    covered_until[i] = buffer[i].start_ns;
    const uint32_t p = buffer[i].parent;
    if (p == kNoParent) continue;
    const int64_t from = std::max(buffer[i].start_ns, covered_until[p]);
    const int64_t to = std::min(buffer[i].end_ns, buffer[p].end_ns);
    if (to > from) {
      covered[p] += to - from;
      covered_until[p] = to;
    }
  }
  std::vector<int64_t> self(buffer.size());
  for (size_t i = 0; i < buffer.size(); ++i) {
    self[i] = buffer[i].duration() - covered[i];
  }
  return self;
}

SpanSummary Summarize(const std::vector<SpanBuffer>& buffers, SpanName name) {
  SpanSummary summary;
  const auto id = static_cast<uint32_t>(name);
  for (const SpanBuffer& buffer : buffers) {
    const std::vector<int64_t> self = SelfTimes(buffer);
    for (size_t i = 0; i < buffer.size(); ++i) {
      if (buffer[i].name != id) continue;
      summary.durations.push_back(buffer[i].duration());
      summary.total_ns += buffer[i].duration();
      summary.self_ns += self[i];
    }
  }
  return summary;
}

double LayerShare(const std::vector<SpanBuffer>& buffers, SpanName name) {
  const int64_t requests = Summarize(buffers, SpanName::kOp).total_ns;
  return requests > 0
             ? static_cast<double>(Summarize(buffers, name).total_ns) / requests
             : 0.0;
}

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool Put(std::FILE* f, const T& value) {
  return std::fwrite(&value, sizeof(T), 1, f) == 1;
}

template <typename T>
bool Get(std::FILE* f, T* value) {
  return std::fread(value, sizeof(T), 1, f) == 1;
}

}  // namespace

bool WriteSpanFile(const std::string& path,
                   const std::vector<SpanBuffer>& buffers) {
  File f(std::fopen(path.c_str(), "wb"));
  if (!f) return false;
  bool ok = std::fwrite(kMagic, sizeof(kMagic), 1, f.get()) == 1;
  ok = ok && Put(f.get(), static_cast<uint32_t>(SpanNames().size()));
  for (const std::string& name : SpanNames()) {
    ok = ok && Put(f.get(), static_cast<uint32_t>(name.size())) &&
         std::fwrite(name.data(), 1, name.size(), f.get()) == name.size();
  }
  ok = ok && Put(f.get(), static_cast<uint32_t>(buffers.size()));
  for (const SpanBuffer& buffer : buffers) {
    ok = ok && Put(f.get(), static_cast<uint64_t>(buffer.size())) &&
         (buffer.empty() ||
          std::fwrite(buffer.data(), sizeof(Span), buffer.size(), f.get()) ==
              buffer.size());
  }
  return ok && std::fflush(f.get()) == 0;
}

bool ReadSpanFile(const std::string& path, std::vector<SpanBuffer>* buffers) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  char magic[sizeof(kMagic)];
  uint32_t names = 0;
  if (std::fread(magic, sizeof(magic), 1, f.get()) != 1 ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      !Get(f.get(), &names) || names != SpanNames().size()) {
    return false;
  }
  for (const std::string& expected : SpanNames()) {
    uint32_t length = 0;
    if (!Get(f.get(), &length) || length != expected.size()) return false;
    std::string name(length, '\0');
    if (std::fread(name.data(), 1, length, f.get()) != length ||
        name != expected) {
      return false;
    }
  }
  uint32_t count = 0;
  if (!Get(f.get(), &count)) return false;
  buffers->assign(count, SpanBuffer{});
  for (SpanBuffer& buffer : *buffers) {
    uint64_t spans = 0;
    if (!Get(f.get(), &spans) || spans > kNoParent) return false;
    buffer.resize(spans);
    if (spans > 0 &&
        std::fread(buffer.data(), sizeof(Span), spans, f.get()) != spans) {
      return false;
    }
  }
  return std::fgetc(f.get()) == EOF;
}

}  // namespace perfbench
