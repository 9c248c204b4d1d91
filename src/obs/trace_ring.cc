#include "obs/trace_ring.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <thread>

namespace mlq {
namespace obs {

std::atomic<bool> g_trace_enabled{false};

void SetTraceEnabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::string_view TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kPredict:
      return "predict";
    case TraceEventType::kInsert:
      return "insert";
    case TraceEventType::kPartition:
      return "partition";
    case TraceEventType::kCompress:
      return "compress";
    case TraceEventType::kExpand:
      return "expand";
    case TraceEventType::kFeedbackDrop:
      return "feedback_drop";
    case TraceEventType::kFeedbackDrain:
      return "feedback_drain";
    case TraceEventType::kPlan:
      return "plan";
    case TraceEventType::kPlanAudit:
      return "plan_audit";
    case TraceEventType::kQueryExec:
      return "query_exec";
  }
  return "unknown";
}

// Per-type names for the two payload slots, mirrored in the enum comments.
static void ArgNames(TraceEventType type, const char** a, const char** b) {
  switch (type) {
    case TraceEventType::kPredict:
      *a = "value";
      *b = "depth";
      return;
    case TraceEventType::kInsert:
      *a = "value";
      *b = "path_len";
      return;
    case TraceEventType::kPartition:
      *a = "depth";
      *b = "child_index";
      return;
    case TraceEventType::kCompress:
      *a = "bytes_freed";
      *b = "th_sse";
      return;
    case TraceEventType::kExpand:
      *a = "new_max_depth";
      *b = "unused";
      return;
    case TraceEventType::kFeedbackDrop:
      *a = "pending";
      *b = "unused";
      return;
    case TraceEventType::kFeedbackDrain:
      *a = "applied";
      *b = "unused";
      return;
    case TraceEventType::kPlan:
      *a = "num_predicates";
      *b = "expected_cost_per_row_us";
      return;
    case TraceEventType::kPlanAudit:
      *a = "max_cost_drift";
      *b = "max_selectivity_drift";
      return;
    case TraceEventType::kQueryExec:
      *a = "rows_in";
      *b = "actual_cost_us";
      return;
  }
  *a = "a";
  *b = "b";
}

TraceRing::TraceRing(size_t capacity) {
  const uint64_t rounded = std::bit_ceil(std::max<uint64_t>(capacity, 2));
  mask_ = rounded - 1;
  slots_ = std::make_unique<Slot[]>(rounded);
}

void TraceRing::Record(TraceEventType type, int64_t ts_ns, int64_t dur_ns,
                       double a, double b) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  // Claim the slot before touching its payload, so two writers whose
  // tickets lap onto it never interleave their stores. A writer holding
  // the claim is a few stores from done: wait it out. If a newer ticket
  // already published here, this event is overwritten before it landed.
  uint64_t seen = slot.seq.load(std::memory_order_relaxed);
  do {
    while (seen == kBusy) {
      std::this_thread::yield();
      seen = slot.seq.load(std::memory_order_relaxed);
    }
    if (seen > ticket) return;
  } while (!slot.seq.compare_exchange_weak(seen, kBusy,
                                           std::memory_order_relaxed));
  // Release stores order the claim before each payload store: a reader
  // that loads any of them (acquire) also sees the claim on its re-check
  // (see Snapshot).
  constexpr auto kRelease = std::memory_order_release;
  slot.type.store(static_cast<uint8_t>(type), kRelease);
  slot.tid.store(CurrentThreadId(), kRelease);
  slot.ts_ns.store(ts_ns, kRelease);
  slot.dur_ns.store(dur_ns, kRelease);
  slot.a.store(a, kRelease);
  slot.b.store(b, kRelease);
  // Publish: a reader that observes seq == ticket + 1 with acquire order
  // also observes the payload stores above.
  slot.seq.store(ticket + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t cap = mask_ + 1;
  const uint64_t begin = end > cap ? end - cap : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (uint64_t i = begin; i < end; ++i) {
    const Slot& slot = slots_[i & mask_];
    if (slot.seq.load(std::memory_order_acquire) != i + 1) continue;
    // Acquire loads pair with Record's release payload stores: if any of
    // them reads a newer writer's store, the re-check below sees that
    // writer's claim (or later) and discards the mixed copy.
    constexpr auto kAcquire = std::memory_order_acquire;
    TraceEvent event;
    event.type = static_cast<TraceEventType>(slot.type.load(kAcquire));
    event.tid = slot.tid.load(kAcquire);
    event.ts_ns = slot.ts_ns.load(kAcquire);
    event.dur_ns = slot.dur_ns.load(kAcquire);
    event.a = slot.a.load(kAcquire);
    event.b = slot.b.load(kAcquire);
    if (slot.seq.load(std::memory_order_relaxed) != i + 1) continue;
    out.push_back(event);
  }
  return out;
}

int64_t TraceRing::overwritten() const {
  const uint64_t recorded = next_.load(std::memory_order_relaxed);
  const uint64_t cap = mask_ + 1;
  return recorded > cap ? static_cast<int64_t>(recorded - cap) : 0;
}

void TraceRing::Clear() {
  const uint64_t cap = mask_ + 1;
  for (uint64_t i = 0; i < cap; ++i) {
    slots_[i].seq.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_release);
}

TraceRing& GlobalTraceRing() {
  static TraceRing* ring = new TraceRing();  // Never freed.
  return *ring;
}

void ExportChromeTrace(std::ostream& os,
                       const std::vector<TraceEvent>& events) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[384];
  bool first = true;
  for (const TraceEvent& event : events) {
    const char* a_name;
    const char* b_name;
    ArgNames(event.type, &a_name, &b_name);
    const double ts_us = static_cast<double>(event.ts_ns) / 1000.0;
    const double dur_us = static_cast<double>(event.dur_ns) / 1000.0;
    int n;
    if (event.dur_ns > 0) {
      n = std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"mlq\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"%s\":%.17g,"
          "\"%s\":%.17g}}",
          first ? "" : ",", std::string(TraceEventTypeName(event.type)).c_str(),
          event.tid, ts_us, dur_us, a_name, event.a, b_name, event.b);
    } else {
      n = std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"mlq\",\"ph\":\"i\",\"s\":\"t\","
          "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":{\"%s\":%.17g,"
          "\"%s\":%.17g}}",
          first ? "" : ",", std::string(TraceEventTypeName(event.type)).c_str(),
          event.tid, ts_us, a_name, event.a, b_name, event.b);
    }
    if (n > 0) os.write(buf, std::min(n, static_cast<int>(sizeof(buf) - 1)));
    first = false;
  }
  os << "]}";
}

}  // namespace obs
}  // namespace mlq
