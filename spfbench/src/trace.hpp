// spfbench: in-memory spans for the traced pass.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions (the library is not instrumented).  Each span
// carries its name, start, end, the request id it belongs to, its parent
// span and the thread (lane) it ran on.  A span's self time is its
// duration minus the part of it covered by its children.  The spans are
// kept in memory and written as chrome-trace JSON when the pass ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace spfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t request = 0;
  std::int32_t parent = -1;  ///< index of the parent span, -1 for a request root
  std::int32_t lane = 0;     ///< chrome-trace tid
};

[[nodiscard]] std::int64_t now_ns();

/// Thread-safe span store.  Ids are indices into spans().
class Trace {
 public:
  Trace();
  /// Open a span now; close it with close(id).
  std::int32_t open(const char* name, std::int64_t request, std::int32_t parent,
                    std::int32_t lane = 0);
  void close(std::int32_t id);
  /// Record a span with known bounds (e.g. derived from server-reported
  /// times).
  std::int32_t add(const Span& s);

  /// Summed self time per span name, in seconds, over closed spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Number of request roots and their summed duration / self time (s).
  struct Roots {
    std::size_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };
  [[nodiscard]] Roots roots() const;

  /// chrome://tracing / Perfetto JSON ("X" events; args carry the request
  /// id, span id and parent id).  Returns false when the file cannot be
  /// written.
  bool write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<double> self_of_all() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t origin_ns_;
};

/// RAII span.
class Scope {
 public:
  Scope(Trace& t, const char* name, std::int64_t request, std::int32_t parent,
        std::int32_t lane = 0)
      : t_(t), id_(t.open(name, request, parent, lane)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Trace& t_;
  std::int32_t id_;
};

/// Per-layer metric `name` (ms per request) from a span name's self time.
void add_layer_ms(Result& r, const std::map<std::string, double>& self, const char* span,
                  const std::string& metric, std::size_t requests);

/// trace.residual_share and trace.overhead_share.
void add_trace_shares(Result& r, const Trace& t, double traced_p50_ms,
                      double untraced_p50_ms);

}  // namespace spfbench
