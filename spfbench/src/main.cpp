// spfbench: run one workload for one seed and report.
//
//   spfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// Prints a human-readable report (every metric with its unit and sample
// count, fail_share, and the workload's named percentiles), a JSON line
// with the host block, and as the last line the result object
//   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 when any output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "numeric/simd.hpp"

namespace {

using namespace spfbench;

struct Workload {
  const char* name;
  Result (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"refactor_warm", run_refactor_warm},
    {"cold_analysis", run_cold_analysis},
    {"serve_mix", run_serve_mix},
    {"dist_fanboth", run_dist_fanboth},
};

/// The end-to-end metrics every untraced run reports, in report order.
const std::vector<LayerMetric> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"write_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"mapping_traffic_per_nnz", "ratio"},
    {"mapping_lambda", "ratio"},
};

int usage(const char* why) {
  std::cerr << "spfbench: " << why
            << "\nusage: spfbench --workload refactor_warm|cold_analysis|serve_mix|dist_fanboth"
               " --seed N --seconds S --trace 0|1 [--trace-file PATH]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// The mode's metrics in report order; a per-layer metric the workload
/// did not set reports 0.  Returns false on a metric outside the mode's
/// list or a missing end-to-end metric (a benchmark bug).
bool finalize(Result& r, bool trace) {
  const std::vector<LayerMetric>& names = trace ? layer_metrics() : kEndToEnd;
  std::vector<Metric> out;
  std::size_t matched = 0;
  for (const LayerMetric& lm : names) {
    const Metric* found = nullptr;
    for (const Metric& m : r.metrics) {
      if (m.name == lm.name) found = &m;
    }
    matched += found != nullptr ? 1 : 0;
    if (found == nullptr && !trace) {
      std::cerr << "spfbench: internal error: metric " << lm.name << " not measured\n";
      return false;
    }
    out.push_back(found != nullptr ? *found : Metric{lm.name, 0.0, lm.unit, 0, "not reached"});
    if (!std::isfinite(out.back().value)) {
      r.fail_check(std::string("metric ") + lm.name + " is not finite");
      out.back().value = 0.0;
    }
  }
  if (matched != r.metrics.size()) {
    std::cerr << "spfbench: internal error: unexpected metric set\n";
    return false;
  }
  r.metrics = std::move(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0 && opt.seconds < 3600;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--trace-file") {
      opt.trace_file = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace 0|1 are required");
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (opt.workload == k.name) w = &k;
  }
  if (w == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  Result r;
  try {
    r = w->run(opt);
  } catch (const std::exception& e) {
    std::cerr << "spfbench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (opt.trace) {
    // Set-up time is an end-to-end metric; a traced run only reports it.
    for (auto it = r.metrics.begin(); it != r.metrics.end(); ++it) {
      if (it->name == "setup_s") {
        r.info.push_back(*it);
        r.metrics.erase(it);
        break;
      }
    }
  } else {
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  if (!finalize(r, opt.trace)) return 1;
  const double fail_share =
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0;
  r.add_info("fail_share", fail_share, "ratio", r.attempted);

  // Human-readable report.
  std::cout << "spfbench " << opt.workload << " seed=" << opt.seed << " seconds=" << opt.seconds
            << (opt.trace ? " traced (per-layer metrics)" : " untraced (end-to-end metrics)")
            << "\n";
  for (const std::vector<Metric>* list : {&r.metrics, &r.info}) {
    for (const Metric& m : *list) {
      std::cout << "  " << std::left << std::setw(26) << m.name << std::right << std::setw(16)
                << std::setprecision(6) << m.value << " " << std::left << std::setw(6) << m.unit
                << " n=" << m.samples << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
    }
  }
  std::cout << "  correct=" << (r.correct ? "true" : "false") << " attempted=" << r.attempted
            << " failed=" << r.failed << " checks_failed=" << r.check_failures.size() << "\n";

  // Host block and sample counts.
  std::ostringstream host;
  host << "{\"host\": {\"hardware_threads\": " << std::thread::hardware_concurrency()
       << ", \"simd_tier\": " << json_string(spf::simd_tier_name(spf::active_simd_tier()))
       << ", \"compiler\": " << json_string(SPFBENCH_COMPILER)
       << ", \"build_type\": " << json_string(SPFBENCH_BUILD_TYPE) << ", \"seed\": " << opt.seed
       << "}, \"workload\": " << json_string(opt.workload)
       << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"seconds\": " << json_number(opt.seconds)
       << ", \"samples\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    host << (i ? ", " : "") << json_string(r.metrics[i].name) << ": " << r.metrics[i].samples;
  }
  host << "}, \"fail_share\": " << json_number(fail_share) << "}";
  std::cout << host.str() << "\n";

  // Result line (last line of stdout).
  std::ostringstream res;
  res << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    res << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  res << "}}";
  std::cout << res.str() << std::endl;
  return r.correct ? 0 : 1;
}
