// In-memory span recorder for the traced run.
//
// A span is one timed call into the program: a name, a start, an end and the
// span that caused it.  Each thread appends to its own buffer (slot), so
// recording takes no lock; spans are written out once, when the run ends.
// Self time is a span's duration minus the part of it its children cover,
// where children on several threads may overlap each other.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace slidebench {

using SpanId = std::uint64_t;  // (slot << 32) | index within the slot; 0 = none
inline constexpr SpanId kNoSpan = 0;

struct Span {
  const char* name = "";  // a string literal
  SpanId parent = kNoSpan;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  // sum of durations
  double self_s = 0.0;   // sum of self times
};

class SpanRecorder {
 public:
  // `slots` independent writers; slot s may only be used by one thread at a
  // time.
  explicit SpanRecorder(std::size_t slots);

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  SpanId begin(std::size_t slot, const char* name, SpanId parent);
  void end(SpanId id);
  // Records an already-timed interval.
  SpanId add(std::size_t slot, const char* name, SpanId parent, std::int64_t start_ns,
             std::int64_t end_ns);

  const Span& get(SpanId id) const;
  std::size_t size() const;

  // Per-name count, total and self time over every recorded span.
  std::map<std::string, SpanTotals> totals() const;

  // Writes one CSV line per span: id,parent,slot,name,start_ns,end_ns.
  // Returns false when the file cannot be written.
  bool dump(const std::string& path) const;

 private:
  Span& at(SpanId id);
  std::vector<std::vector<Span>> slots_;
};

// RAII span: begins on construction, ends on destruction.  A null recorder
// makes it a no-op, so instrumented code runs untraced at the cost of a
// branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::size_t slot, const char* name, SpanId parent)
      : rec_(rec), id_(rec != nullptr ? rec->begin(slot, name, parent) : kNoSpan) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }

 private:
  SpanRecorder* rec_;
  SpanId id_;
};

}  // namespace slidebench
