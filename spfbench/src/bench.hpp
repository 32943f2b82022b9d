// spfbench: shared types of the benchmark program.
//
// Every workload is a closed loop run from one process: setup (timed
// several times, median reported), an untimed warm-up, one timed window of
// --seconds, and output checks.  With --trace 1 the window is split into
// an untraced half and a traced half that replays each request as the
// public calls of every layer it crosses (see trace.hpp / replay.hpp) and
// reports per-layer metrics instead of end-to-end ones.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "matrix/csc.hpp"

namespace spfbench {

using spf::CscMatrix;
using spf::count_t;
using spf::index_t;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The one deviation from library defaults every workload shares: a plan
/// for four processors, so the default one-thread-per-processor executor
/// fits a 4-core host and engine, serve and rt numbers use one mapping.
[[nodiscard]] spf::PlanConfig bench_plan_config();

/// Setup is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;
/// Relative residual ||A x - b|| / ||b|| every solve must meet.
inline constexpr double kResidualTol = 1e-8;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  ///< chrome-trace output of the traced pass
};

/// One reported metric.  `samples` is the count behind a percentile or
/// mean (0 when the value is exact); `note` names the percentile used.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run):
  /// exactly the set BENCHMARK.json lists for that mode.
  std::vector<Metric> metrics;
  /// Reported in the text lines only (e.g. fail_share, workload-specific
  /// percentile names).
  std::vector<Metric> info;
  std::vector<std::string> check_failures;
  std::size_t errors_logged = 0;

  /// Set metric `name`, appending it when not yet present.
  void add(std::string name, double value, std::string unit, std::uint64_t samples = 0,
           std::string note = {});
  void add_info(std::string name, double value, std::string unit, std::uint64_t samples = 0,
                std::string note = {}) {
    info.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
  }
  /// Record a failed output check: the run is incorrect and exits non-zero.
  void fail_check(std::string what);
  /// Log a failed operation that is not a wrong output (rejection, timeout,
  /// error reply); it counts in `failed` only.
  void note_error(const std::string& what);
};

/// Seeded generator for every input the benchmark makes (SplitMix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// Independent stream for (seed, purpose, index).
[[nodiscard]] Rng stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index = 0);

/// Nearest-rank percentile of `v`, q in (0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Latency samples in milliseconds, each with its completion time and the
/// request class it belongs to (the pattern a single-caller loop sent).
class Samples {
 public:
  void add(double ms, std::size_t cls = 0) {
    v_.push_back(ms);
    t_.push_back(Clock::now());
    c_.push_back(cls);
  }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    t_.insert(t_.end(), o.t_.begin(), o.t_.end());
    c_.insert(c_.end(), o.c_.begin(), o.c_.end());
  }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double percentile(double q) const { return spfbench::percentile(v_, q); }
  /// Samples strictly above the q-th percentile.
  [[nodiscard]] std::size_t beyond(double q) const;
  /// The samples that completed in slice k of `slices` equal slices of
  /// [start, end] (later completions fall in the last slice).
  [[nodiscard]] Samples slice(Clock::time_point start, Clock::time_point end, int k,
                              int slices) const;
  /// Per request class, the kFloorPercentile-th percentile of its samples.
  [[nodiscard]] std::vector<double> class_floors() const;

 private:
  std::vector<double> v_;
  std::vector<Clock::time_point> t_;
  std::vector<std::size_t> c_;
};

[[nodiscard]] double median(std::vector<double> v);

/// How the timings resist a shared host.  On the 4-vCPU VM this was tuned
/// on, neighbour load comes and goes in bursts of milliseconds to many
/// seconds and only ever slows a request: the same fixed loop took 1.9 ms
/// in a quiet moment and 3.3 ms in a typical one, and a whole-window
/// median moved by up to 2x between runs.  Two estimators keep the figures
/// steady:
///
/// Single-caller loops (refactor_warm, cold_analysis, dist_fanboth) send
/// every request class equally often: one class per distinct pattern, each
/// met once per pass of the stream.  A class's floor is the
/// kFloorPercentile-th percentile of its latencies in the window, the cost
/// of that request when the host leaves it alone (on cold_analysis, with
/// fewer than 20 passes per pattern, the fastest pass).  p50 and p90 are
/// taken over the class floors, and throughput is the closed loop's, one
/// request at a time: classes / sum of floors.
///
/// The two-connection serve_mix loop has no per-class cost: its latency is
/// queueing between connections.  Its window is cut into up to kSlices
/// equal slices by completion time (at least kPerSlice samples each).
/// Throughput is the upper decile of the slice rates and each p50 the
/// lower decile of the slice medians: the quiet tenth of the run.  The
/// tail is the median of the slice tails, because a slice tail is
/// bimodal (a solve either queued behind a submit or did not) and a low
/// decile of it picks the slices where few solves happened to queue.
inline constexpr double kFloorPercentile = 5;
inline constexpr int kSlices = 30;
inline constexpr std::size_t kPerSlice = 200;

struct Window {
  Clock::time_point start;
  Clock::time_point end;
};

/// Single-caller loops: `<prefix>p50_ms` over the class floors, and the
/// p90 over them as `tail_ms` (no prefix) or as the report line
/// `<prefix>p90_ms`; with `throughput`, also ops_per_s.
void add_floor_metrics(Result& r, const std::string& prefix, const Samples& s, bool throughput);

/// serve_mix: ops_per_s, the upper decile of the slice rates.
void add_slice_throughput(Result& r, const Samples& ops, Window w);

/// serve_mix: `<prefix>p50_ms`, the lower decile of the slice medians, and
/// the `tail`-th percentile, the median of the slice percentiles (as
/// `tail_ms` without a prefix, else the report line `<prefix>p<tail>_ms`).
/// Both estimators also print the whole-window p50, and the p99 wherever
/// at least 10 samples lie beyond it, as ungated report lines.
void add_slice_latency(Result& r, const std::string& prefix, const Samples& s, Window w,
                       int tail);

/// ||A x - b||_2 / ||b||_2 for a symmetric A stored as its lower triangle.
[[nodiscard]] double relative_residual(const CscMatrix& lower, std::span<const double> x,
                                       std::span<const double> b);

[[nodiscard]] bool bitwise_equal(std::span<const double> a, std::span<const double> b);

/// Metrics of a fixed set of plans, taken outside the timed window so they
/// repeat exactly for a seed: the analytic traffic summed over the
/// mappings per summed nnz(L), their load imbalance as a mean weighted by
/// each mapping's work (a small pattern's noisy lambda weighs as little as
/// its work), and the paper work of one factorization.
struct PlanSet {
  double traffic = 0.0;
  double factor_nnz = 0.0;
  double lambda_weighted = 0.0;
  double work = 0.0;
  std::size_t plans = 0;
  void add(const spf::Plan& plan);
  /// mapping_traffic_per_nnz and mapping_lambda (untraced), or
  /// numeric.work (traced).
  void report(Result& r, bool trace) const;
};

/// Process peak resident set (one process runs one workload).
[[nodiscard]] double peak_rss_mb();

/// The per-layer metrics of a traced run, with their units, in report
/// order.  Every traced run reports all of them; a layer the workload's
/// requests never reach reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

/// Run `make` kSetupReps times (dropping each previous state first), add
/// the median as setup_s, and return the last state.
template <typename F>
auto repeated_setup(Result& r, F&& make) -> decltype(make()) {
  std::vector<double> times;
  decltype(make()) state;
  for (int i = 0; i < kSetupReps; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = make();
    times.push_back(seconds_since(t0));
  }
  r.add("setup_s", median(times), "s", times.size(),
        "median of " + std::to_string(times.size()) + ", fastest " +
            std::to_string(*std::min_element(times.begin(), times.end())));
  return state;
}

Result run_refactor_warm(const Options& opt);
Result run_cold_analysis(const Options& opt);
Result run_serve_mix(const Options& opt);
Result run_dist_fanboth(const Options& opt);

}  // namespace spfbench
