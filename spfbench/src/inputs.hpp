// spfbench: seeded input generation.  The library receives only what these
// functions produce — matrices with values and right-hand sides.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace spfbench {

/// Per-purpose stream ids for stream(seed, purpose, index).
enum Purpose : std::uint64_t {
  kValues = 1,
  kRhs = 2,
  kOrder = 3,
  kColdPatterns = 4,
  kClient = 5,
};

/// One pattern with value variants and right-hand sides.
struct PatternInputs {
  std::string name;
  CscMatrix base;                     ///< the pattern with its own SPD values
  std::vector<CscMatrix> variants;    ///< seeded D·A·D rescalings (still SPD)
  std::vector<std::vector<double>> rhs;
};

/// The five paper stand-ins (gen/suite), each with `nvariants` seeded value
/// variants and `nrhs` seeded right-hand sides.
[[nodiscard]] std::vector<PatternInputs> stand_in_inputs(std::uint64_t seed, int nvariants,
                                                         int nrhs);

/// Symmetric diagonal rescaling D·A·D with d_i = exp(U(-1/4, 1/4)).
[[nodiscard]] CscMatrix rescaled(const CscMatrix& lower, Rng& rng);

[[nodiscard]] std::vector<double> random_rhs(index_t n, Rng& rng);

/// A seeded stream of `count` distinct SPD patterns: 5- and 9-point grid
/// Laplacians (sides 16-40), k-nearest-neighbour FE meshes (n 400-1200,
/// k 4-7) and power networks (n 500-1500), in equal thirds, interleaved,
/// with sizes spread evenly over those ranges along the stream.
[[nodiscard]] std::vector<CscMatrix> cold_patterns(std::uint64_t seed, std::size_t count);

/// A seeded order over `n` items that visits each once per cycle.
[[nodiscard]] std::vector<std::size_t> seeded_cycle(std::uint64_t seed, std::size_t n);

}  // namespace spfbench
