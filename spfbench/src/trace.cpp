#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace spfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

Trace::Trace() : origin_ns_(now_ns()) { spans_.reserve(1 << 16); }

std::int32_t Trace::open(const char* name, std::int64_t request, std::int32_t parent,
                         std::int32_t lane) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, t, 0, request, parent, lane});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Trace::close(std::int32_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int32_t Trace::add(const Span& s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> Trace::self_of_all() const {
  // Children of each span, then self = duration - |union of child intervals|.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns > 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns <= 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> Trace::self_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_of_all();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

Trace::Roots Trace::roots() const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_of_all();
  Roots r;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 || s.end_ns <= 0) continue;
    ++r.count;
    r.total_seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    r.self_seconds += self[i];
  }
  return r;
}

bool Trace::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  out.precision(3);
  out << std::fixed;
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns <= 0) continue;
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.lane << ",\"ts\":" << static_cast<double>(s.start_ns - origin_ns_) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void add_layer_ms(Result& r, const std::map<std::string, double>& self, const char* span,
                  const std::string& metric, std::size_t requests) {
  const auto it = self.find(span);
  const double s = it == self.end() ? 0.0 : it->second;
  r.add(metric, requests > 0 ? s * 1e3 / static_cast<double>(requests) : 0.0, "ms", requests);
}

void add_trace_shares(Result& r, const Trace& t, double traced_p50_ms,
                      double untraced_p50_ms) {
  const Trace::Roots roots = t.roots();
  r.add("trace.residual_share",
        roots.total_seconds > 0 ? roots.self_seconds / roots.total_seconds : 0.0, "ratio",
        roots.count);
  r.add("trace.overhead_share",
        untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1.0 : 0.0, "ratio",
        roots.count);
}

}  // namespace spfbench
