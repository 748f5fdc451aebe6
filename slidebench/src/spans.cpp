#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace slidebench {

SpanRecorder::SpanRecorder(std::size_t slots) : slots_(slots) {
  for (auto& s : slots_) s.reserve(1 << 12);
}

SpanId SpanRecorder::add(std::size_t slot, const char* name, SpanId parent,
                         std::int64_t start_ns, std::int64_t end_ns) {
  auto& buf = slots_.at(slot);
  buf.push_back(Span{name, parent, start_ns, end_ns});
  // Index + 1 so that no real span has id 0 (kNoSpan).
  return (static_cast<SpanId>(slot) << 32) | static_cast<SpanId>(buf.size());
}

SpanId SpanRecorder::begin(std::size_t slot, const char* name, SpanId parent) {
  const std::int64_t t = now_ns();
  return add(slot, name, parent, t, t);
}

void SpanRecorder::end(SpanId id) { at(id).end_ns = now_ns(); }

Span& SpanRecorder::at(SpanId id) {
  return slots_.at(id >> 32).at((id & 0xFFFFFFFFu) - 1);
}

const Span& SpanRecorder::get(SpanId id) const {
  return slots_.at(id >> 32).at((id & 0xFFFFFFFFu) - 1);
}

std::size_t SpanRecorder::size() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.size();
  return n;
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  // Children's intervals grouped by parent.
  std::map<SpanId, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const auto& buf : slots_) {
    for (const Span& s : buf) {
      if (s.parent != kNoSpan) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    for (std::size_t i = 0; i < slots_[slot].size(); ++i) {
      const Span& s = slots_[slot][i];
      const SpanId id = (static_cast<SpanId>(slot) << 32) | static_cast<SpanId>(i + 1);
      std::int64_t covered = 0;
      if (auto it = children.find(id); it != children.end()) {
        // Union of the children's intervals, clipped to this span.
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t lo = 0;
        std::int64_t hi = -1;
        for (auto [a, b] : iv) {
          a = std::max(a, s.start_ns);
          b = std::min(b, s.end_ns);
          if (b <= a) continue;
          if (a > hi) {
            if (hi > lo) covered += hi - lo;
            lo = a;
            hi = b;
          } else {
            hi = std::max(hi, b);
          }
        }
        if (hi > lo) covered += hi - lo;
      }
      SpanTotals& t = out[s.name];
      const std::int64_t dur = s.end_ns - s.start_ns;
      ++t.count;
      t.total_s += static_cast<double>(dur) * 1e-9;
      t.self_s += static_cast<double>(dur - covered) * 1e-9;
    }
  }
  return out;
}

bool SpanRecorder::dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,slot,name,start_ns,end_ns\n");
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    for (std::size_t i = 0; i < slots_[slot].size(); ++i) {
      const Span& s = slots_[slot][i];
      const SpanId id = (static_cast<SpanId>(slot) << 32) | static_cast<SpanId>(i + 1);
      std::fprintf(f, "%llu,%llu,%zu,%s,%lld,%lld\n", static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(s.parent), slot, s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace slidebench
