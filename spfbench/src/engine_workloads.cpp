// refactor_warm and cold_analysis: one caller driving one default
// SolverEngine (nprocs = 4) in a closed loop, each request one factorize
// plus one single-RHS solve.  They share the loop and differ in inputs:
// refactor_warm cycles new values of the five paper stand-ins (every
// request hits the plan cache), cold_analysis streams more distinct
// patterns than the cache holds (every request builds a plan).
#include <functional>
#include <memory>
#include <string>

#include "bench.hpp"
#include "engine/solver_engine.hpp"
#include "inputs.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace spfbench {

namespace {

/// Value variants and right-hand sides generated per stand-in.
constexpr int kVariants = 8;
constexpr int kRhsPerPattern = 8;
/// Distinct patterns in the cold stream: 3x the 64-plan LRU cache, so every
/// request misses even after the stream wraps (the cache evicted the
/// pattern long before it comes round again; each request asserts it), and
/// a 30 s window passes over every pattern several times, which the
/// per-pattern floors need.
constexpr std::size_t kColdPool = 192;
/// Extra patterns factored before the window to warm code and allocator.
constexpr std::size_t kColdWarmup = 6;
/// Patterns whose mappings give mapping_traffic_per_nnz / mapping_lambda.
constexpr std::size_t kColdMapped = 128;

spf::SolverEngineConfig engine_config() {
  spf::SolverEngineConfig c;
  c.plan = bench_plan_config();
  return c;
}

struct Request {
  const CscMatrix* a = nullptr;
  const std::vector<double>* b = nullptr;
  std::size_t cls = 0;  ///< the pattern, for the per-class floors
};

struct LoopOut {
  Samples total;  ///< factorize + solve, ms
  Samples write;  ///< factorize alone, ms
  std::uint64_t ok = 0;
};

/// The closed loop.  Untraced (trace == nullptr) it calls the engine;
/// traced it replays every request as its layer calls under one root span.
/// Every request must hit the plan cache (expect_warm) or miss it.
LoopOut run_loop(spf::SolverEngine& engine, const std::function<Request()>& next,
                 double seconds, bool expect_warm, Result& r, Trace* trace,
                 LayerCounts* counts) {
  LoopOut out;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  std::int64_t req = 0;
  while (Clock::now() < deadline) {
    const Request q = next();
    ++r.attempted;
    ++req;
    try {
      std::vector<double> x;
      bool warm = false;
      double total_ms = 0.0, write_ms = 0.0;
      if (trace == nullptr) {
        const auto t0 = Clock::now();
        const spf::Factorization f = engine.factorize(*q.a);
        const auto t1 = Clock::now();
        x = f.solve(*q.b);
        total_ms = seconds_since(t0) * 1e3;
        write_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        warm = f.warm();
      } else {
        const auto t0 = Clock::now();
        const std::int32_t root = trace->open("request", req, -1);
        const Replayed g = replay_factorize(engine, *q.a, *trace, req, root, *counts);
        const auto t1 = Clock::now();
        x = replay_solve(g, *q.b, *trace, req, root);
        trace->close(root);
        total_ms = seconds_since(t0) * 1e3;
        write_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        warm = g.warm;
        if (!g.warm) tally_plan(*counts, *g.plan);
      }
      const double res = relative_residual(*q.a, x, *q.b);
      if (res > kResidualTol) {
        ++r.failed;
        r.fail_check("request " + std::to_string(req) + ": residual " + std::to_string(res));
        continue;
      }
      if (warm != expect_warm) {
        ++r.failed;
        r.fail_check("request " + std::to_string(req) +
                     (expect_warm ? ": warm workload missed the plan cache"
                                  : ": cold workload hit the plan cache"));
        continue;
      }
      out.total.add(total_ms, q.cls);
      out.write.add(write_ms, q.cls);
      ++out.ok;
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail_check("request " + std::to_string(req) + ": " + e.what());
    }
  }
  return out;
}

/// End-to-end or per-layer metrics of one engine workload.
void run_engine_workload(const Options& opt, spf::SolverEngine& engine,
                         const std::function<Request()>& next, bool expect_warm, Result& r) {
  if (!opt.trace) {
    const LoopOut o = run_loop(engine, next, opt.seconds, expect_warm, r, nullptr, nullptr);
    add_floor_metrics(r, "", o.total, /*throughput=*/true);
    add_floor_metrics(r, "write_", o.write, /*throughput=*/false);
    return;
  }
  const LoopOut plain =
      run_loop(engine, next, opt.seconds / 2, expect_warm, r, nullptr, nullptr);
  Trace trace;
  LayerCounts counts;
  const spf::PlanCacheStats before = engine.cache()->stats();
  const LoopOut traced =
      run_loop(engine, next, opt.seconds / 2, expect_warm, r, &trace, &counts);
  add_engine_layers(r, trace, counts, before, engine.cache()->stats());
  add_trace_shares(r, trace, traced.total.percentile(50), plain.total.percentile(50));
  if (!opt.trace_file.empty() && !trace.write_chrome(opt.trace_file)) {
    r.fail_check("cannot write " + opt.trace_file);
  }
}

}  // namespace

Result run_refactor_warm(const Options& opt) {
  struct State {
    std::vector<PatternInputs> inputs;
    std::unique_ptr<spf::SolverEngine> engine;
  };
  Result r;
  auto s = repeated_setup(r, [&] {
    auto st = std::make_unique<State>();
    st->inputs = stand_in_inputs(opt.seed, kVariants, kRhsPerPattern);
    st->engine = std::make_unique<spf::SolverEngine>(engine_config());
    for (const PatternInputs& in : st->inputs) (void)st->engine->factorize(in.variants[0]);
    return st;
  });
  // Warm-up: one request per (pattern, variant), untimed.
  for (const PatternInputs& in : s->inputs) {
    for (const CscMatrix& a : in.variants) (void)s->engine->factorize(a).solve(in.rhs[0]);
  }

  // Seeded round-robin over the patterns; seeded variant and rhs per request.
  Rng rng = stream(opt.seed, kOrder);
  const std::vector<std::size_t> cycle = seeded_cycle(rng.next(), s->inputs.size());
  std::size_t i = 0;
  const std::function<Request()> next = [&]() -> Request {
    const std::size_t p = cycle[i++ % cycle.size()];
    const PatternInputs& in = s->inputs[p];
    return {&in.variants[rng.next() % in.variants.size()], &in.rhs[rng.next() % in.rhs.size()],
            p};
  };
  run_engine_workload(opt, *s->engine, next, /*expect_warm=*/true, r);

  PlanSet plans;
  for (const PatternInputs& in : s->inputs) {
    plans.add(s->engine->factorize(in.base).plan());
    if (opt.trace) check_replay(engine_config(), in.variants[0], in.rhs[0], r);
  }
  plans.report(r, opt.trace);
  return r;
}

Result run_cold_analysis(const Options& opt) {
  struct State {
    std::vector<CscMatrix> patterns;
    std::vector<std::vector<double>> rhs;
    std::unique_ptr<spf::SolverEngine> engine;
  };
  Result r;
  auto s = repeated_setup(r, [&] {
    auto st = std::make_unique<State>();
    st->patterns = cold_patterns(opt.seed, kColdPool + kColdWarmup);
    Rng rb = stream(opt.seed, kRhs);
    for (const CscMatrix& a : st->patterns) st->rhs.push_back(random_rhs(a.ncols(), rb));
    st->engine = std::make_unique<spf::SolverEngine>(engine_config());
    return st;
  });
  for (std::size_t k = kColdPool; k < kColdPool + kColdWarmup; ++k) {
    (void)s->engine->factorize(s->patterns[k]).solve(s->rhs[k]);
  }

  std::size_t i = 0;
  const std::function<Request()> next = [&]() -> Request {
    const std::size_t k = i++ % kColdPool;
    return {&s->patterns[k], &s->rhs[k], k};
  };
  run_engine_workload(opt, *s->engine, next, /*expect_warm=*/false, r);

  if (opt.trace) check_replay(engine_config(), s->patterns[0], s->rhs[0], r);
  PlanSet plans;
  for (std::size_t k = 0; k < kColdMapped; ++k) {
    plans.add(spf::make_plan(s->patterns[k], bench_plan_config()));
  }
  plans.report(r, opt.trace);
  return r;
}

}  // namespace spfbench
