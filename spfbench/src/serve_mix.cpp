// serve_mix: two SPF1 connections (one thread each, one tenant) to an
// in-process SolverServer with default settings except nprocs = 4.  Two,
// not four: with four client threads, four server connection threads and
// the four-thread executor on four cores, the timings measured the host
// scheduler (quiet-host spreads of 0.10-0.20 of the median across seeds,
// against 0.04-0.07 with two connections).  Each
// connection runs a closed loop of seeded operations: 90% single-RHS
// solves against the latest handle of a random stand-in (reads), 10%
// submit_matrix with new values of a stand-in (warm writes) that
// republish that pattern's handle.  Writes take the patterns in a shared
// seeded round-robin, so every pattern is rewritten every few writes and
// no published handle ages out of the tenant's 64-handle FIFO.
#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace spfbench {

namespace {

constexpr int kConnections = 2;
constexpr double kWriteShare = 0.10;
/// The gated read tail.  With two connections about 8% of solves queue
/// behind a submit, so the p90 sits on the knee between the two modes and
/// jumps between runs; the p95 lies inside the queued mode.
constexpr int kTail = 95;
constexpr int kVariants = 8;
constexpr int kRhsPerPattern = 16;
/// A reply slower than this is a timeout (counted failed, never retried).
constexpr int kClientTimeoutMs = 20000;
constexpr const char* kTenant = "spfbench";

struct Published {
  std::uint64_t handle = 0;
  const CscMatrix* a = nullptr;  ///< the values that handle factored
};

struct State {
  std::vector<PatternInputs> inputs;
  std::unique_ptr<spf::net::SolverServer> server;
  std::vector<std::unique_ptr<spf::net::SolverClient>> clients;  // destroyed before server
  std::mutex mu;
  std::vector<Published> latest;  ///< per pattern; guarded by mu
};

bool ok(std::uint8_t status) { return status == static_cast<std::uint8_t>(spf::ServeStatus::kOk); }

std::unique_ptr<State> setup(std::uint64_t seed) {
  auto s = std::make_unique<State>();
  s->inputs = stand_in_inputs(seed, kVariants, kRhsPerPattern);
  spf::net::SolverServerConfig cfg;
  cfg.engine.plan = bench_plan_config();
  s->server = std::make_unique<spf::net::SolverServer>(cfg);
  s->server->start();
  for (int c = 0; c < kConnections; ++c) {
    spf::net::SolverClientOptions co;
    co.port = s->server->port();
    co.tenant = kTenant;
    co.read_timeout_ms = kClientTimeoutMs;
    s->clients.push_back(std::make_unique<spf::net::SolverClient>(co));
  }
  for (const PatternInputs& in : s->inputs) {
    const auto ack = s->clients[0]->submit_matrix(in.variants[0]);
    if (!ok(ack.status)) throw std::runtime_error("setup submit failed: " + ack.error);
    s->latest.push_back({ack.handle, &in.variants[0]});
  }
  return s;
}

/// What one connection saw in one pass.
struct ConnOut {
  Samples read, write;
  Samples queue, exec;  ///< server-reported solve queue / exec, ms
  double batch_rhs = 0, net_ms = 0, submit_numeric_ms = 0, trisolve_ms = 0;
  std::uint64_t warm_writes = 0, ok = 0, attempted = 0, failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> errors;  ///< failed ops that are not wrong outputs
};

struct PassOut {
  ConnOut sum;
  Samples ops;  ///< reads and writes
  Window window;
};

void connection_loop(State& s, int c, std::uint64_t seed, std::uint64_t pass, double seconds,
                     std::atomic<std::uint64_t>& writes, const std::vector<std::size_t>& cycle,
                     Trace* trace, ConnOut& out) {
  spf::net::SolverClient& client = *s.clients[static_cast<std::size_t>(c)];
  Rng rng = stream(seed, kClient, pass * kConnections + static_cast<std::uint64_t>(c));
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  std::int64_t req = static_cast<std::int64_t>(c) << 40;
  while (Clock::now() < deadline) {
    ++out.attempted;
    ++req;
    const bool is_write = rng.uniform() < kWriteShare;
    try {
      const std::int64_t t0 = now_ns();
      if (is_write) {
        const std::size_t p = cycle[writes.fetch_add(1) % cycle.size()];
        const PatternInputs& in = s.inputs[p];
        const CscMatrix& a = in.variants[rng.next() % in.variants.size()];
        const auto ack = client.submit_matrix(a);
        const std::int64_t t1 = now_ns();
        if (!ok(ack.status)) {
          ++out.failed;
          out.errors.push_back("submit status " + std::to_string(ack.status) + " " + ack.error);
          continue;
        }
        {
          std::lock_guard<std::mutex> lk(s.mu);
          s.latest[p] = {ack.handle, &a};
        }
        out.write.add(static_cast<double>(t1 - t0) * 1e-6);
        out.submit_numeric_ms += ack.numeric_seconds * 1e3;
        out.warm_writes += ack.warm != 0 ? 1 : 0;
        if (trace != nullptr) {
          const std::int32_t root = trace->add({"request", t0, t1, req, -1, c});
          const auto plan_ns = static_cast<std::int64_t>(ack.plan_seconds * 1e9);
          const auto num_ns = static_cast<std::int64_t>(ack.numeric_seconds * 1e9);
          const std::int64_t num_end = t1 - (t1 - t0 - plan_ns - num_ns) / 2;
          trace->add({"submit.plan", num_end - num_ns - plan_ns, num_end - num_ns, req, root, c});
          trace->add({"submit.numeric", num_end - num_ns, num_end, req, root, c});
        }
      } else {
        const std::size_t p = rng.next() % s.inputs.size();
        const PatternInputs& in = s.inputs[p];
        const std::vector<double>& b = in.rhs[rng.next() % in.rhs.size()];
        Published pub;
        {
          std::lock_guard<std::mutex> lk(s.mu);
          pub = s.latest[p];
        }
        const auto ack = client.solve(pub.handle, b, static_cast<std::uint32_t>(b.size()), 1);
        const std::int64_t t1 = now_ns();
        if (!ok(ack.status)) {
          ++out.failed;
          out.errors.push_back("solve status " + std::to_string(ack.status) + " " + ack.error);
          continue;
        }
        const double res = relative_residual(*pub.a, ack.x, b);
        if (res > kResidualTol) {
          ++out.failed;
          out.check_failures.push_back("solve residual " + std::to_string(res));
          continue;
        }
        const double rt_ms = static_cast<double>(t1 - t0) * 1e-6;
        out.read.add(rt_ms);
        out.queue.add(ack.queue_seconds * 1e3);
        out.exec.add(ack.exec_seconds * 1e3);
        out.batch_rhs += ack.batch_rhs;
        out.net_ms += rt_ms - (ack.queue_seconds + ack.exec_seconds) * 1e3;
        out.trisolve_ms += ack.exec_seconds * 1e3;
        if (trace != nullptr) {
          // Server-reported intervals, placed inside the round trip.
          const std::int32_t root = trace->add({"request", t0, t1, req, -1, c});
          const auto q_ns = static_cast<std::int64_t>(ack.queue_seconds * 1e9);
          const auto e_ns = static_cast<std::int64_t>(ack.exec_seconds * 1e9);
          const std::int64_t e_end = t1 - (t1 - t0 - q_ns - e_ns) / 2;
          trace->add({"serve.queue_wait", e_end - e_ns - q_ns, e_end - e_ns, req, root, c});
          trace->add({"serve.exec", e_end - e_ns, e_end, req, root, c});
        }
      }
      ++out.ok;
    } catch (const std::exception& e) {  // error reply, unknown handle, timeout, transport
      ++out.failed;
      out.errors.push_back(std::string(is_write ? "submit: " : "solve: ") + e.what());
    }
  }
}

PassOut run_pass(State& s, std::uint64_t seed, std::uint64_t pass, double seconds,
                 Trace* trace) {
  std::atomic<std::uint64_t> writes{0};
  const std::vector<std::size_t> cycle = seeded_cycle(stream(seed, kOrder, pass).next(), s.inputs.size());
  std::vector<ConnOut> outs(kConnections);
  std::vector<std::thread> threads;
  PassOut p;
  p.window.start = Clock::now();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      connection_loop(s, c, seed, pass, seconds, writes, cycle, trace,
                      outs[static_cast<std::size_t>(c)]);
    });
  }
  for (std::thread& t : threads) t.join();
  p.window.end = Clock::now();
  for (const ConnOut& o : outs) {
    p.ops.append(o.read);
    p.ops.append(o.write);
    p.sum.read.append(o.read);
    p.sum.write.append(o.write);
    p.sum.queue.append(o.queue);
    p.sum.exec.append(o.exec);
    p.sum.batch_rhs += o.batch_rhs;
    p.sum.net_ms += o.net_ms;
    p.sum.submit_numeric_ms += o.submit_numeric_ms;
    p.sum.trisolve_ms += o.trisolve_ms;
    p.sum.warm_writes += o.warm_writes;
    p.sum.ok += o.ok;
    p.sum.attempted += o.attempted;
    p.sum.failed += o.failed;
    p.sum.check_failures.insert(p.sum.check_failures.end(), o.check_failures.begin(),
                                o.check_failures.end());
    p.sum.errors.insert(p.sum.errors.end(), o.errors.begin(), o.errors.end());
  }
  return p;
}

void account(Result& r, const PassOut& p) {
  r.attempted += p.sum.attempted;
  r.failed += p.sum.failed;
  for (const std::string& f : p.sum.check_failures) r.fail_check(f);
  for (const std::string& e : p.sum.errors) r.note_error(e);
}

std::uint64_t wire_bytes(const spf::net::SolverServer& server) {
  const auto snap = server.counters().snapshot();
  return snap.counter("net.bytes_rx") + snap.counter("net.bytes_tx");
}

}  // namespace

Result run_serve_mix(const Options& opt) {
  Result r;
  auto s = repeated_setup(r, [&] { return setup(opt.seed); });
  (void)run_pass(*s, opt.seed, 0, 0.5, nullptr);  // warm-up, untimed and unreported

  // The mappings the server's engine builds for the stand-ins (same
  // pattern, same PlanConfig).
  PlanSet plans;
  for (const PatternInputs& in : s->inputs) {
    plans.add(spf::make_plan(in.base, bench_plan_config()));
  }

  if (!opt.trace) {
    const PassOut p = run_pass(*s, opt.seed, 1, opt.seconds, nullptr);
    account(r, p);
    add_slice_throughput(r, p.ops, p.window);
    add_slice_latency(r, "", p.sum.read, p.window, kTail);
    add_slice_latency(r, "write_", p.sum.write, p.window, kTail);
    plans.report(r, false);
    return r;
  }

  const PassOut plain = run_pass(*s, opt.seed, 1, opt.seconds / 2, nullptr);
  account(r, plain);
  Trace trace;
  const std::uint64_t bytes0 = wire_bytes(*s->server);
  const PassOut tp = run_pass(*s, opt.seed, 2, opt.seconds / 2, &trace);
  const std::uint64_t bytes1 = wire_bytes(*s->server);
  account(r, tp);
  const ConnOut& o = tp.sum;
  const auto n = static_cast<double>(std::max<std::uint64_t>(o.ok, 1));
  const auto reads = static_cast<double>(std::max<std::size_t>(o.read.size(), 1));
  const auto writes = static_cast<double>(std::max<std::size_t>(o.write.size(), 1));
  r.add("serve.queue_wait.p50_ms", o.queue.percentile(50), "ms", o.queue.size());
  r.add("serve.queue_wait.p99_ms", o.queue.percentile(99), "ms", o.queue.size());
  r.add("serve.exec.p50_ms", o.exec.percentile(50), "ms", o.exec.size());
  r.add("serve.exec.p99_ms", o.exec.percentile(99), "ms", o.exec.size());
  r.add("serve.batch_rhs", o.batch_rhs / reads, "rhs", o.read.size());
  r.add("submit.numeric.ms", o.submit_numeric_ms / writes, "ms", o.write.size());
  r.add("submit.warm_ratio", static_cast<double>(o.warm_writes) / writes, "ratio", o.write.size());
  r.add("net.overhead.ms", o.net_ms / reads, "ms", o.read.size());
  r.add("net.bytes_per_op", static_cast<double>(bytes1 - bytes0) / n, "B", o.ok);
  r.add("numeric.ms", o.submit_numeric_ms / n, "ms", o.ok);
  plans.report(r, true);
  r.add("trisolve.ms", o.trisolve_ms / n, "ms", o.ok);
  add_trace_shares(r, trace, o.read.percentile(50), plain.sum.read.percentile(50));
  if (!opt.trace_file.empty() && !trace.write_chrome(opt.trace_file)) {
    r.fail_check("cannot write " + opt.trace_file);
  }
  return r;
}

}  // namespace spfbench
