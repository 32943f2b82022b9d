#include "replay.hpp"

#include <stdexcept>
#include <utility>

#include "engine/fingerprint.hpp"
#include "exec/parallel_cholesky.hpp"
#include "metrics/work.hpp"
#include "numeric/trisolve.hpp"
#include "order/ordering.hpp"
#include "partition/dependencies.hpp"
#include "partition/partitioner.hpp"
#include "schedule/block_scheduler.hpp"
#include "symbolic/row_structure.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace spfbench {

namespace {

/// make_plan's stages, one span each.  Handles the benchmark's PlanConfig
/// (block scheme, the paper's scheduler); anything else is a usage error.
std::shared_ptr<const spf::Plan> replay_make_plan(const CscMatrix& lower,
                                                  const spf::PlanConfig& cfg, Trace& t,
                                                  std::int64_t req, std::int32_t parent) {
  if (cfg.scheme != spf::MappingScheme::kBlock || !cfg.schedule_spec().is_default()) {
    throw std::invalid_argument("replay covers the block scheme with the default scheduler");
  }
  auto plan = std::make_shared<spf::Plan>();
  plan->config = cfg;
  {
    Scope s(t, "order", req, parent);
    plan->perm = spf::compute_ordering(lower, cfg.ordering);
  }
  {
    // permute_lower over slot numbers yields the permuted input pattern and
    // the plan's value-gather map in one pass.
    Scope s(t, "symbolic", req, parent);
    std::vector<double> slots(static_cast<std::size_t>(lower.nnz()));
    for (std::size_t k = 0; k < slots.size(); ++k) slots[k] = static_cast<double>(k);
    const CscMatrix numbered(lower.nrows(), lower.ncols(),
                             {lower.col_ptr().begin(), lower.col_ptr().end()},
                             {lower.row_ind().begin(), lower.row_ind().end()}, std::move(slots));
    const CscMatrix permuted = spf::permute_lower(numbered, plan->perm.iperm());
    plan->n = permuted.ncols();
    plan->in_col_ptr.assign(permuted.col_ptr().begin(), permuted.col_ptr().end());
    plan->in_row_ind.assign(permuted.row_ind().begin(), permuted.row_ind().end());
    plan->value_gather.reserve(permuted.values().size());
    for (double v : permuted.values()) plan->value_gather.push_back(static_cast<count_t>(v));
    plan->symbolic = spf::symbolic_cholesky(permuted);
  }
  spf::Mapping& m = plan->mapping;
  {
    Scope s(t, "partition", req, parent);
    m.partition = spf::partition_factor(plan->symbolic, cfg.partition);
  }
  {
    Scope s(t, "deps", req, parent);
    m.deps = spf::block_dependencies(m.partition);
  }
  {
    Scope s(t, "work", req, parent);
    m.blk_work = spf::block_work(m.partition);
  }
  {
    Scope s(t, "schedule", req, parent);
    m.assignment = spf::block_schedule(m.partition, m.deps, m.blk_work, cfg.nprocs);
    m.cost = cfg.schedule_spec().cost;
  }
  {
    Scope s(t, "kernel_compile", req, parent);
    plan->rows_of = spf::build_row_structure(m.partition.factor);
    plan->kernels = spf::compile_kernel_plan(m.partition, plan->in_col_ptr, plan->in_row_ind,
                                             plan->rows_of);
  }
  return plan;
}

}  // namespace

void tally_plan(LayerCounts& counts, const spf::Plan& plan) {
  const spf::Mapping& m = plan.mapping;
  ++counts.cold;
  counts.blocks += static_cast<double>(m.partition.num_blocks());
  for (const auto& succ : m.deps.succs) counts.edges += static_cast<double>(succ.size());
  counts.plan_bytes += static_cast<double>(plan.byte_size());
  counts.schedule_efficiency += m.report().schedule_efficiency;
}

Replayed replay_factorize(spf::SolverEngine& engine, const CscMatrix& lower, Trace& t,
                          std::int64_t req, std::int32_t parent, LayerCounts& counts) {
  const spf::SolverEngineConfig& cfg = engine.config();
  Replayed out;
  spf::Fingerprint key;
  {
    Scope s(t, "engine.lookup", req, parent);
    key = spf::fingerprint_request(lower, cfg.plan);
    out.plan = engine.cache()->get(key);
  }
  out.warm = out.plan != nullptr;
  if (!out.warm) {
    auto built = replay_make_plan(lower, cfg.plan, t, req, parent);
    Scope s(t, "engine.insert", req, parent);
    out.plan = engine.cache()->insert(key, std::move(built));
  }
  const spf::Plan& plan = *out.plan;
  CscMatrix permuted;
  {
    Scope s(t, "gather", req, parent);
    permuted = plan.permuted_input(lower.values());
  }
  spf::ParallelExecResult exec;
  {
    Scope s(t, "numeric", req, parent);
    const spf::Mapping& m = plan.mapping;
    exec = spf::parallel_cholesky(
        permuted, m.partition, m.deps, m.blk_work, m.assignment,
        {cfg.nthreads > 0 ? cfg.nthreads : cfg.plan.nprocs, cfg.allow_stealing, cfg.kernel,
         &plan.rows_of, &plan.kernels});
  }
  ++counts.requests;
  for (count_t w : exec.work_done) counts.work += static_cast<double>(w);
  counts.stolen += static_cast<double>(exec.blocks_stolen);
  counts.contention += static_cast<double>(exec.queue_contention);
  counts.numeric_seconds += exec.wall_seconds;
  out.factor = std::move(exec.values);
  return out;
}

std::vector<double> replay_solve(const Replayed& f, std::span<const double> b, Trace& t,
                                 std::int64_t req, std::int32_t parent) {
  Scope s(t, "trisolve", req, parent);
  const spf::Plan& p = *f.plan;
  const auto perm = p.perm.perm();
  const std::size_t n = b.size();
  std::vector<double> x(n);
  for (std::size_t k = 0; k < n; ++k) x[k] = b[static_cast<std::size_t>(perm[k])];
  const spf::SymbolicFactor& sf = p.mapping.partition.factor;
  spf::lower_solve_batch(sf, f.factor, x, 1);
  spf::lower_transpose_solve_batch(sf, f.factor, x, 1);
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) out[static_cast<std::size_t>(perm[k])] = x[k];
  return out;
}

void check_replay(const spf::SolverEngineConfig& cfg, const CscMatrix& lower,
                  std::span<const double> b, Result& r) {
  spf::SolverEngine engine(cfg);
  spf::SolverEngine replay_engine(cfg);
  Trace scratch;
  LayerCounts counts;
  for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
    const spf::Factorization f = engine.factorize(lower);
    const Replayed g = replay_factorize(replay_engine, lower, scratch, 0, -1, counts);
    if (f.warm() != g.warm || !bitwise_equal(f.values(), g.factor) ||
        !bitwise_equal(f.solve(b), replay_solve(g, b, scratch, 0, -1))) {
      r.fail_check("replayed factorize/solve differs from the engine (pass " +
                   std::to_string(pass) + ")");
      return;
    }
  }
}

void add_engine_layers(Result& r, const Trace& t, const LayerCounts& c,
                       const spf::PlanCacheStats& before, const spf::PlanCacheStats& after) {
  const auto self = t.self_seconds();
  const std::size_t n = c.requests;
  const std::pair<const char*, const char*> spans[] = {
      {"order", "order.ms"},
      {"symbolic", "symbolic.ms"},
      {"partition", "partition.ms"},
      {"deps", "deps.ms"},
      {"work", "work.ms"},
      {"schedule", "schedule.ms"},
      {"kernel_compile", "kernel_compile.ms"},
      {"engine.lookup", "engine.lookup.ms"},
      {"engine.insert", "engine.insert.ms"},
      {"gather", "gather.ms"},
      {"numeric", "numeric.ms"},
      {"trisolve", "trisolve.ms"},
  };
  for (const auto& [span, metric] : spans) add_layer_ms(r, self, span, metric, n);
  auto per_cold = [&](double v) { return c.cold > 0 ? v / static_cast<double>(c.cold) : 0.0; };
  auto per_req = [&](double v) { return n > 0 ? v / static_cast<double>(n) : 0.0; };
  r.add("partition.blocks", per_cold(c.blocks), "count", c.cold);
  r.add("deps.edges", per_cold(c.edges), "count", c.cold);
  r.add("schedule.efficiency", per_cold(c.schedule_efficiency), "ratio", c.cold);
  r.add("plan.mb", per_cold(c.plan_bytes) / (1024.0 * 1024.0), "MB", c.cold);
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups = hits + static_cast<double>(after.misses - before.misses);
  r.add("engine.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio", n);
  r.add("engine.evictions", per_req(static_cast<double>(after.evictions - before.evictions)),
        "count", n);
  r.add("numeric.work_per_us", c.numeric_seconds > 0 ? c.work / (c.numeric_seconds * 1e6) : 0.0,
        "1/us", n);
  r.add("exec.blocks_stolen", per_req(c.stolen), "count", n);
  r.add("exec.queue_contention", per_req(c.contention), "count", n);
}

}  // namespace spfbench
