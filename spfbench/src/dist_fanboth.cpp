// dist_fanboth: one caller factoring seeded new values of the five paper
// stand-ins with the fan-both message-passing runtime, rt_cholesky_run
// over a fresh LoopbackFabric(4) per request, on the mapping make_plan
// builds with the shared PlanConfig.  Every request's delivered data
// volume must equal the mapping's analytic traffic; a verify pass asserts
// the factor is bitwise the shared-memory executor's on the same mapping.
#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "exec/parallel_cholesky.hpp"
#include "inputs.hpp"
#include "rt/loopback.hpp"
#include "rt/rt_cholesky.hpp"
#include "symbolic/row_structure.hpp"
#include "trace.hpp"

namespace spfbench {

namespace {

constexpr int kVariants = 8;

struct State {
  std::vector<PatternInputs> inputs;
  std::vector<spf::Plan> plans;
  std::vector<count_t> traffic;  ///< analytic MappingReport::total_traffic per plan
};

count_t delivered_volume(const std::vector<spf::rt::TransportStats>& per_rank) {
  count_t v = 0;
  for (const auto& s : per_rank) v += s.volume_received();
  return v;
}

spf::rt::RtRunResult run_rt(const spf::Plan& plan, const CscMatrix& permuted) {
  const spf::Mapping& m = plan.mapping;
  spf::rt::LoopbackFabric fabric(m.assignment.nprocs);
  std::vector<spf::rt::Transport*> endpoints;
  for (index_t r = 0; r < m.assignment.nprocs; ++r) endpoints.push_back(&fabric.endpoint(r));
  return spf::rt::rt_cholesky_run(endpoints, permuted, m.partition, m.deps, m.assignment);
}

/// Per-request rank figures of the traced replay.
struct RankTimes {
  double max_ms = 0, mean_ms = 0, gather_ms = 0;
  count_t volume = 0;  ///< data values delivered to all ranks
};

/// rt_cholesky_run replayed as its public calls: the shared row structure,
/// then per rank (one thread each, lane r + 1) rt_cholesky_rank and
/// rt_gather_factor.  A failing rank shuts its endpoint down so the group
/// fails fast, as rt_cholesky_run does; the first error is rethrown.
std::vector<double> replay_rt(const spf::Plan& plan, const CscMatrix& permuted, Trace& t,
                              std::int64_t req, std::int32_t root, RankTimes& times) {
  const spf::Mapping& m = plan.mapping;
  const index_t nranks = m.assignment.nprocs;
  spf::RowStructure rows_of;
  {
    Scope s(t, "rt.row_structure", req, root);
    rows_of = spf::build_row_structure(m.partition.factor);
  }
  spf::rt::RtExecOptions ropt;
  ropt.row_structure = &rows_of;
  spf::rt::LoopbackFabric fabric(nranks);
  std::vector<double> rank_ms(static_cast<std::size_t>(nranks)), gather_ms(rank_ms.size());
  std::vector<count_t> volume(rank_ms.size(), 0);
  std::vector<double> factor;
  std::mutex err_mu;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (index_t r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      const auto ur = static_cast<std::size_t>(r);
      try {
        spf::rt::RtRankResult rank;
        {
          Scope s(t, "rt.rank", req, root, static_cast<std::int32_t>(r) + 1);
          const auto t0 = Clock::now();
          rank = spf::rt::rt_cholesky_rank(fabric.endpoint(r), permuted, m.partition, m.deps,
                                            m.assignment, ropt);
          rank_ms[ur] = seconds_since(t0) * 1e3;
        }
        volume[ur] = rank.transport.volume_received();
        Scope s(t, "rt.gather", req, root, static_cast<std::int32_t>(r) + 1);
        const auto t0 = Clock::now();
        std::vector<double> g =
            spf::rt::rt_gather_factor(fabric.endpoint(r), m.partition, m.assignment, rank.values);
        gather_ms[ur] = seconds_since(t0) * 1e3;
        if (r == 0) factor = std::move(g);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(err_mu);
          if (error == nullptr) error = std::current_exception();
        }
        fabric.endpoint(r).shutdown();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (error != nullptr) std::rethrow_exception(error);
  times.max_ms = *std::max_element(rank_ms.begin(), rank_ms.end());
  for (std::size_t r = 0; r < rank_ms.size(); ++r) {
    times.mean_ms += rank_ms[r] / static_cast<double>(nranks);
    times.gather_ms += gather_ms[r] / static_cast<double>(nranks);
    times.volume += volume[r];
  }
  return factor;
}

struct LoopOut {
  Samples total, write, shared;
  RankTimes ranks;  ///< summed over requests
  double imbalance = 0;
  std::uint64_t ok = 0;
};

/// The closed loop.  `trace` selects the replay; `time_shared` also times
/// parallel_cholesky on every request's input (outside its latency).
LoopOut run_loop(const State& s, std::uint64_t seed, std::uint64_t pass, double seconds,
                 Result& r, Trace* trace, bool time_shared) {
  LoopOut out;
  Rng rng = stream(seed, kOrder, pass);
  const std::vector<std::size_t> cycle = seeded_cycle(rng.next(), s.inputs.size());
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  std::int64_t req = 0;
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const std::size_t p = cycle[i % cycle.size()];
    const PatternInputs& in = s.inputs[p];
    const spf::Plan& plan = s.plans[p];
    const CscMatrix& a = in.variants[rng.next() % in.variants.size()];
    ++r.attempted;
    ++req;
    try {
      const auto t0 = Clock::now();
      if (trace == nullptr) {
        const CscMatrix permuted = plan.permuted_input(a.values());
        const auto t1 = Clock::now();
        const spf::rt::RtRunResult res = run_rt(plan, permuted);
        out.write.add(seconds_since(t1) * 1e3, p);
        out.total.add(seconds_since(t0) * 1e3, p);
        if (delivered_volume(res.per_rank) != s.traffic[p]) {
          ++r.failed;
          r.fail_check("request " + std::to_string(req) + ": rt volume != analytic traffic");
          continue;
        }
        if (time_shared) {
          const auto t2 = Clock::now();
          const spf::Mapping& m = plan.mapping;
          (void)spf::parallel_cholesky(permuted, m.partition, m.deps, m.blk_work, m.assignment);
          out.shared.add(seconds_since(t2) * 1e3);
        }
      } else {
        const std::int32_t root = trace->open("request", req, -1);
        CscMatrix permuted;
        {
          Scope g(*trace, "gather", req, root);
          permuted = plan.permuted_input(a.values());
        }
        RankTimes rt_times;
        (void)replay_rt(plan, permuted, *trace, req, root, rt_times);
        trace->close(root);
        out.total.add(seconds_since(t0) * 1e3, p);
        if (rt_times.volume != s.traffic[p]) {
          ++r.failed;
          r.fail_check("request " + std::to_string(req) + ": rt volume != analytic traffic");
          continue;
        }
        out.ranks.max_ms += rt_times.max_ms;
        out.ranks.mean_ms += rt_times.mean_ms;
        out.ranks.gather_ms += rt_times.gather_ms;
        out.imbalance += rt_times.mean_ms > 0 ? rt_times.max_ms / rt_times.mean_ms - 1.0 : 0.0;
      }
      ++out.ok;
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail_check("request " + std::to_string(req) + ": " + e.what());
    }
  }
  return out;
}

/// The verify pass: per stand-in, rt factor bitwise equal to
/// parallel_cholesky on the same mapping and values, and delivered volume
/// equal to the analytic traffic.  Returns the runs' summed transport
/// counts.
struct VerifyCounts {
  count_t messages = 0, volume = 0, blocked_sends = 0;
};

VerifyCounts verify(const State& s, Result& r) {
  VerifyCounts c;
  for (std::size_t p = 0; p < s.plans.size(); ++p) {
    const spf::Plan& plan = s.plans[p];
    const spf::Mapping& m = plan.mapping;
    const CscMatrix permuted = plan.permuted_input(s.inputs[p].variants[0].values());
    const spf::rt::RtRunResult res = run_rt(plan, permuted);
    const spf::ParallelExecResult shared =
        spf::parallel_cholesky(permuted, m.partition, m.deps, m.blk_work, m.assignment);
    if (!bitwise_equal(res.values, shared.values)) {
      r.fail_check(s.inputs[p].name + ": rt factor differs from parallel_cholesky");
    }
    if (delivered_volume(res.per_rank) != s.traffic[p]) {
      r.fail_check(s.inputs[p].name + ": rt volume differs from analytic traffic");
    }
    for (const auto& st : res.per_rank) {
      for (count_t msgs : st.recv_messages) c.messages += msgs;
      c.blocked_sends += st.blocked_sends;
    }
    c.volume += delivered_volume(res.per_rank);
  }
  return c;
}

}  // namespace

Result run_dist_fanboth(const Options& opt) {
  Result r;
  auto s = repeated_setup(r, [&] {
    auto st = std::make_unique<State>();
    st->inputs = stand_in_inputs(opt.seed, kVariants, 1);
    for (const PatternInputs& in : st->inputs) {
      st->plans.push_back(spf::make_plan(in.base, bench_plan_config()));
      st->traffic.push_back(st->plans.back().mapping.report().total_traffic);
    }
    return st;
  });
  (void)run_loop(*s, opt.seed, 0, 0.3, r, nullptr, false);  // warm-up
  r.attempted = r.failed = 0;

  if (!opt.trace) {
    const LoopOut o = run_loop(*s, opt.seed, 1, opt.seconds, r, nullptr, false);
    add_floor_metrics(r, "", o.total, /*throughput=*/true);
    add_floor_metrics(r, "write_", o.write, /*throughput=*/false);
    (void)verify(*s, r);
    PlanSet plans;
    for (const spf::Plan& plan : s->plans) plans.add(plan);
    plans.report(r, false);
    return r;
  }

  const LoopOut plain = run_loop(*s, opt.seed, 1, opt.seconds / 2, r, nullptr, true);
  Trace trace;
  const LoopOut traced = run_loop(*s, opt.seed, 2, opt.seconds / 2, r, &trace, false);
  const VerifyCounts vc = verify(*s, r);
  const auto self = trace.self_seconds();
  const std::size_t n = traced.ok;
  const double dn = static_cast<double>(std::max<std::size_t>(n, 1));
  add_layer_ms(r, self, "gather", "gather.ms", n);
  add_layer_ms(r, self, "rt.row_structure", "rt.row_structure.ms", n);
  r.add("rt.rank.max_ms", traced.ranks.max_ms / dn, "ms", n);
  r.add("rt.rank.mean_ms", traced.ranks.mean_ms / dn, "ms", n);
  r.add("rt.gather.ms", traced.ranks.gather_ms / dn, "ms", n);
  r.add("rt.rank_imbalance", traced.imbalance / dn, "ratio", n);
  // Transport counts over the verify pass (one run per stand-in), so they
  // repeat exactly: summed over the five, not averaged over a timed window.
  r.add("rt.messages", static_cast<double>(vc.messages), "count", s->plans.size());
  r.add("rt.volume", static_cast<double>(vc.volume), "count", s->plans.size());
  r.add("rt.blocked_sends", static_cast<double>(vc.blocked_sends), "count", s->plans.size());
  const double shared_p50 = plain.shared.percentile(50);
  r.add("rt.over_shared", shared_p50 > 0 ? plain.write.percentile(50) / shared_p50 : 0.0,
        "ratio", plain.shared.size());
  add_trace_shares(r, trace, traced.total.percentile(50), plain.total.percentile(50));
  if (!opt.trace_file.empty() && !trace.write_chrome(opt.trace_file)) {
    r.fail_check("cannot write " + opt.trace_file);
  }
  return r;
}

}  // namespace spfbench
