#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.hpp"

namespace spfbench {

spf::PlanConfig bench_plan_config() {
  spf::PlanConfig cfg;
  cfg.nprocs = 4;
  return cfg;
}

void Result::add(std::string name, double value, std::string unit, std::uint64_t samples,
                 std::string note) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = {std::move(name), value, std::move(unit), samples, std::move(note)};
      return;
    }
  }
  metrics.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kLayers = {
      {"order.ms", "ms"},
      {"symbolic.ms", "ms"},
      {"partition.ms", "ms"},
      {"deps.ms", "ms"},
      {"partition.blocks", "count"},
      {"deps.edges", "count"},
      {"work.ms", "ms"},
      {"schedule.ms", "ms"},
      {"schedule.efficiency", "ratio"},
      {"kernel_compile.ms", "ms"},
      {"plan.mb", "MB"},
      {"engine.lookup.ms", "ms"},
      {"engine.insert.ms", "ms"},
      {"engine.hit_ratio", "ratio"},
      {"engine.evictions", "count"},
      {"gather.ms", "ms"},
      {"numeric.ms", "ms"},
      {"numeric.work", "count"},
      {"numeric.work_per_us", "1/us"},
      {"exec.blocks_stolen", "count"},
      {"exec.queue_contention", "count"},
      {"trisolve.ms", "ms"},
      {"serve.queue_wait.p50_ms", "ms"},
      {"serve.queue_wait.p99_ms", "ms"},
      {"serve.exec.p50_ms", "ms"},
      {"serve.exec.p99_ms", "ms"},
      {"serve.batch_rhs", "rhs"},
      {"submit.numeric.ms", "ms"},
      {"submit.warm_ratio", "ratio"},
      {"net.overhead.ms", "ms"},
      {"net.bytes_per_op", "B"},
      {"rt.row_structure.ms", "ms"},
      {"rt.rank.max_ms", "ms"},
      {"rt.rank.mean_ms", "ms"},
      {"rt.gather.ms", "ms"},
      {"rt.rank_imbalance", "ratio"},
      {"rt.messages", "count"},
      {"rt.volume", "count"},
      {"rt.blocked_sends", "count"},
      {"rt.over_shared", "ratio"},
      {"trace.residual_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return kLayers;
}

void Result::fail_check(std::string what) {
  correct = false;
  if (check_failures.size() < 20) std::cerr << "spfbench: check failed: " << what << "\n";
  check_failures.push_back(std::move(what));
}

void Result::note_error(const std::string& what) {
  if (++errors_logged <= 20) std::cerr << "spfbench: operation failed: " << what << "\n";
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

std::size_t Samples::beyond(double q) const {
  const double p = percentile(q);
  return static_cast<std::size_t>(std::count_if(v_.begin(), v_.end(), [p](double x) { return x > p; }));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Samples Samples::slice(Clock::time_point start, Clock::time_point end, int k,
                       int slices) const {
  Samples out;
  const double width = std::chrono::duration<double>(end - start).count() / slices;
  for (std::size_t i = 0; i < v_.size(); ++i) {
    const double at = std::chrono::duration<double>(t_[i] - start).count();
    const int s = std::clamp(static_cast<int>(at / width), 0, slices - 1);
    if (s == k) {
      out.v_.push_back(v_[i]);
      out.t_.push_back(t_[i]);
      out.c_.push_back(c_[i]);
    }
  }
  return out;
}

namespace {

/// The plain whole-window percentiles, as ungated report lines: the p50,
/// and the p99 wherever at least 10 samples lie beyond it.
void add_whole_window(Result& r, const std::string& prefix, const Samples& s) {
  r.add_info(prefix + "window_p50_ms", s.percentile(50), "ms", s.size(), "whole window; not gated");
  if (s.beyond(99) >= 10) {
    r.add_info(prefix + "p99_ms", s.percentile(99), "ms", s.size(),
               "whole window, " + std::to_string(s.beyond(99)) + " beyond; not gated");
  }
}

}  // namespace

std::vector<double> Samples::class_floors() const {
  std::map<std::size_t, std::vector<double>> by_class;
  for (std::size_t i = 0; i < v_.size(); ++i) by_class[c_[i]].push_back(v_[i]);
  std::vector<double> floors;
  for (auto& [cls, v] : by_class) floors.push_back(spfbench::percentile(std::move(v), kFloorPercentile));
  return floors;
}

void add_floor_metrics(Result& r, const std::string& prefix, const Samples& s, bool throughput) {
  const std::vector<double> floors = s.class_floors();
  const std::string note = "over " + std::to_string(floors.size()) + " class floors (p" +
                           std::to_string(static_cast<int>(kFloorPercentile)) + " per class)";
  if (throughput) {
    double sum_ms = 0.0;
    for (double f : floors) sum_ms += f;
    r.add("ops_per_s", sum_ms > 0 ? 1e3 * static_cast<double>(floors.size()) / sum_ms : 0.0,
          "1/s", s.size(), "classes / sum of class floors");
  }
  r.add(prefix + "p50_ms", percentile(floors, 50), "ms", s.size(), note);
  const double p90 = percentile(floors, 90);
  if (prefix.empty()) r.add("tail_ms", p90, "ms", s.size(), "p90 " + note);
  r.add_info(prefix + "p90_ms", p90, "ms", s.size(), note);
  add_whole_window(r, prefix, s);
}

namespace {

/// How many slices keep at least kPerSlice of `n` samples in each.
int slices_for(std::size_t n) {
  return static_cast<int>(std::clamp<std::size_t>(n / kPerSlice, 1, kSlices));
}

/// f over each slice of the window.
template <typename F>
std::vector<double> per_slice(const Samples& s, Window w, int slices, F&& f) {
  std::vector<double> per;
  for (int k = 0; k < slices; ++k) per.push_back(f(s.slice(w.start, w.end, k, slices)));
  return per;
}

std::string slice_note(const char* decile, const std::vector<double>& per) {
  std::ostringstream os;
  os << decile << " decile of " << per.size() << " slices, median " << median(per);
  return os.str();
}

}  // namespace

void add_slice_throughput(Result& r, const Samples& ops, Window w) {
  const int slices = slices_for(ops.size());
  const double width = std::chrono::duration<double>(w.end - w.start).count() / slices;
  const std::vector<double> rates = per_slice(ops, w, slices, [&](const Samples& part) {
    return static_cast<double>(part.size()) / width;
  });
  r.add("ops_per_s", percentile(rates, 90), "1/s", ops.size(), slice_note("upper", rates));
}

void add_slice_latency(Result& r, const std::string& prefix, const Samples& s, Window w,
                       int tail) {
  const int slices = slices_for(s.size());
  const std::vector<double> p50 =
      per_slice(s, w, slices, [](const Samples& part) { return part.percentile(50); });
  const std::vector<double> pt =
      per_slice(s, w, slices, [&](const Samples& part) { return part.percentile(tail); });
  r.add(prefix + "p50_ms", percentile(p50, 10), "ms", s.size(), slice_note("lower", p50));
  const std::string name = "p" + std::to_string(tail);
  std::ostringstream note;
  note << name << ", median of " << pt.size() << " slices";
  if (prefix.empty()) r.add("tail_ms", median(pt), "ms", s.size(), note.str());
  r.add_info(prefix + name + "_ms", median(pt), "ms", s.size(), note.str());
  add_whole_window(r, prefix, s);
}

double relative_residual(const CscMatrix& lower, std::span<const double> x,
                         std::span<const double> b) {
  const auto n = static_cast<std::size_t>(lower.ncols());
  if (x.size() != n || b.size() != n) return 1e300;  // a wrong-sized reply fails the check
  std::vector<double> ax(n, 0.0);
  for (index_t j = 0; j < lower.ncols(); ++j) {
    const auto rows = lower.col_rows(j);
    const auto vals = lower.col_values(j);
    const auto uj = static_cast<std::size_t>(j);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      const auto ui = static_cast<std::size_t>(rows[t]);
      ax[ui] += vals[t] * x[uj];
      if (ui != uj) ax[uj] += vals[t] * x[ui];
    }
  }
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += (ax[i] - b[i]) * (ax[i] - b[i]);
    den += b[i] * b[i];
  }
  const double rel = std::sqrt(num) / std::max(std::sqrt(den), 1e-300);
  return std::isfinite(rel) ? rel : 1e300;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void PlanSet::add(const spf::Plan& plan) {
  const spf::Mapping& m = plan.mapping;
  const spf::MappingReport rep = m.report();
  traffic += static_cast<double>(rep.total_traffic);
  factor_nnz += static_cast<double>(m.partition.factor.nnz());
  lambda_weighted += rep.lambda * static_cast<double>(rep.total_work);
  work += static_cast<double>(rep.total_work);
  ++plans;
}

void PlanSet::report(Result& r, bool trace) const {
  if (trace) {
    r.add("numeric.work", plans > 0 ? work / static_cast<double>(plans) : 0.0, "count", plans);
    return;
  }
  r.add("mapping_traffic_per_nnz", factor_nnz > 0 ? traffic / factor_nnz : 0.0, "ratio", plans);
  r.add("mapping_lambda", work > 0 ? lambda_weighted / work : 0.0, "ratio", plans);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace spfbench
