// spfbench: SolverEngine::factorize and Factorization::solve replayed as
// their public sub-calls, one span per layer, for the traced pass.
//
// The replay performs the engine's steps in the engine's order —
// fingerprint + cache lookup, on a miss the full static analysis (order,
// permute + symbolic, partition, dependencies, work, schedule, row
// structure + kernel compile) and the cache insert, then value gather and
// the parallel numeric phase — against the engine's own cache and with the
// engine's executor settings.  check_replay() asserts it reproduces the
// engine's factor and solution bitwise, so the per-layer times describe
// the code path the untraced run measures.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "engine/solver_engine.hpp"
#include "trace.hpp"

namespace spfbench {

/// Layer counts accumulated over replayed requests (count / ratio metrics).
struct LayerCounts {
  std::size_t requests = 0;
  std::size_t cold = 0;  ///< requests that missed the cache
  double blocks = 0, edges = 0, plan_bytes = 0, schedule_efficiency = 0;
  double work = 0, stolen = 0, contention = 0;
  double numeric_seconds = 0;
};

struct Replayed {
  std::shared_ptr<const spf::Plan> plan;
  std::vector<double> factor;
  bool warm = false;
};

/// Replay engine.factorize(lower) under span `parent` of request `req`.
Replayed replay_factorize(spf::SolverEngine& engine, const CscMatrix& lower, Trace& t,
                          std::int64_t req, std::int32_t parent, LayerCounts& counts);

/// Add a cold request's plan sizes and schedule quality to `counts`
/// (call outside the request's spans: it evaluates the mapping).
void tally_plan(LayerCounts& counts, const spf::Plan& plan);

/// Replay Factorization::solve(b) ("trisolve" span).
std::vector<double> replay_solve(const Replayed& f, std::span<const double> b, Trace& t,
                                 std::int64_t req, std::int32_t parent);

/// Assert the replay reproduces engine.factorize / solve bitwise on
/// `lower` (fresh engine with the same configuration, so both paths run
/// the same cold-then-warm sequence).
void check_replay(const spf::SolverEngineConfig& cfg, const CscMatrix& lower,
                  std::span<const double> b, Result& r);

/// Per-layer metrics shared by the engine workloads: every analysis,
/// engine, gather, numeric and trisolve layer from the trace plus the
/// counts.  Layers a workload never reaches report 0.
void add_engine_layers(Result& r, const Trace& t, const LayerCounts& c,
                       const spf::PlanCacheStats& before, const spf::PlanCacheStats& after);

}  // namespace spfbench
