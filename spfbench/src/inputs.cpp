#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>

#include "gen/suite.hpp"

namespace spfbench {

namespace {

using Edge = std::pair<index_t, index_t>;

/// Lower triangle of an SPD matrix with the given off-diagonal pattern:
/// a(i,j) = -w, w ~ U(1/2, 3/2); a(i,i) = sum_j |a(i,j)| + U(1/2, 3/2), so
/// the matrix is strictly diagonally dominant.
CscMatrix spd_from_edges(index_t n, std::vector<Edge> edges, Rng& rng) {
  for (Edge& e : edges) {
    if (e.first < e.second) std::swap(e.first, e.second);  // (row > col)
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return std::tie(a.second, a.first) < std::tie(b.second, b.first); });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> diag(un, 0.0);
  std::vector<count_t> col_ptr(un + 1, 0);
  std::vector<index_t> row_ind;
  std::vector<double> vals;
  row_ind.reserve(un + edges.size());
  vals.reserve(un + edges.size());
  std::vector<double> weight(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    weight[e] = rng.uniform(0.5, 1.5);
    diag[static_cast<std::size_t>(edges[e].first)] += weight[e];
    diag[static_cast<std::size_t>(edges[e].second)] += weight[e];
  }
  std::size_t e = 0;
  for (index_t j = 0; j < n; ++j) {
    row_ind.push_back(j);
    vals.push_back(diag[static_cast<std::size_t>(j)] + rng.uniform(0.5, 1.5));
    for (; e < edges.size() && edges[e].second == j; ++e) {
      if (edges[e].first == j) continue;
      row_ind.push_back(edges[e].first);
      vals.push_back(-weight[e]);
    }
    col_ptr[static_cast<std::size_t>(j) + 1] = static_cast<count_t>(row_ind.size());
  }
  return {n, n, std::move(col_ptr), std::move(row_ind), std::move(vals)};
}

CscMatrix grid(index_t nx, index_t ny, bool nine_point, Rng& rng) {
  std::vector<Edge> edges;
  auto id = [nx](index_t x, index_t y) { return x + y * nx; };
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      if (x + 1 < nx) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < ny) edges.emplace_back(id(x, y), id(x, y + 1));
      if (nine_point && y + 1 < ny) {
        if (x + 1 < nx) edges.emplace_back(id(x, y), id(x + 1, y + 1));
        if (x > 0) edges.emplace_back(id(x, y), id(x - 1, y + 1));
      }
    }
  }
  return spd_from_edges(nx * ny, std::move(edges), rng);
}

/// Points uniform in the unit square, each joined to its k nearest.
CscMatrix knn_mesh(index_t n, int k, Rng& rng) {
  const auto un = static_cast<std::size_t>(n);
  std::vector<double> px(un), py(un);
  for (std::size_t i = 0; i < un; ++i) {
    px[i] = rng.uniform();
    py[i] = rng.uniform();
  }
  std::vector<Edge> edges;
  std::vector<std::pair<double, index_t>> dist(un);
  for (std::size_t i = 0; i < un; ++i) {
    for (std::size_t j = 0; j < un; ++j) {
      const double dx = px[i] - px[j], dy = py[i] - py[j];
      dist[j] = {i == j ? 1e300 : dx * dx + dy * dy, static_cast<index_t>(j)};
    }
    std::nth_element(dist.begin(), dist.begin() + k, dist.end());
    for (int t = 0; t < k; ++t) edges.emplace_back(static_cast<index_t>(i), dist[static_cast<std::size_t>(t)].second);
  }
  return spd_from_edges(n, std::move(edges), rng);
}

/// A radial tree (most buses hang off a recent bus, some off any bus —
/// the substations) plus loop branches between buses close in the tree.
CscMatrix power_network(index_t n, Rng& rng) {
  std::vector<Edge> edges;
  for (index_t i = 1; i < n; ++i) {
    const index_t lo = rng.uniform() < 0.7 ? std::max<index_t>(0, i - 30) : 0;
    edges.emplace_back(i, static_cast<index_t>(rng.range(lo, i - 1)));
  }
  const index_t loops = n / 5;
  for (index_t t = 0; t < loops; ++t) {
    const auto i = static_cast<index_t>(rng.range(2, n - 1));
    const auto j = static_cast<index_t>(rng.range(std::max<index_t>(0, i - 40), i - 2));
    edges.emplace_back(i, j);
  }
  return spd_from_edges(n, std::move(edges), rng);
}

}  // namespace

Rng stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  Rng mix(seed * 0x9e3779b97f4a7c15ULL ^ (purpose << 48) ^ index);
  return Rng(mix.next());
}

CscMatrix rescaled(const CscMatrix& lower, Rng& rng) {
  const index_t n = lower.ncols();
  std::vector<double> d(static_cast<std::size_t>(n));
  for (double& v : d) v = std::exp(rng.uniform(-0.25, 0.25));
  std::vector<double> vals(lower.values().begin(), lower.values().end());
  for (index_t j = 0; j < n; ++j) {
    const auto rows = lower.col_rows(j);
    const count_t base = lower.col_ptr()[static_cast<std::size_t>(j)];
    for (std::size_t t = 0; t < rows.size(); ++t) {
      vals[static_cast<std::size_t>(base) + t] *=
          d[static_cast<std::size_t>(j)] * d[static_cast<std::size_t>(rows[t])];
    }
  }
  return {n, n, std::vector<count_t>(lower.col_ptr().begin(), lower.col_ptr().end()),
          std::vector<index_t>(lower.row_ind().begin(), lower.row_ind().end()),
          std::move(vals)};
}

std::vector<double> random_rhs(index_t n, Rng& rng) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

std::vector<PatternInputs> stand_in_inputs(std::uint64_t seed, int nvariants, int nrhs) {
  std::vector<PatternInputs> out;
  std::uint64_t p = 0;
  for (spf::TestProblem& prob : spf::harwell_boeing_stand_ins()) {
    PatternInputs in;
    in.name = prob.name;
    in.base = std::move(prob.lower);
    Rng rv = stream(seed, kValues, p);
    Rng rb = stream(seed, kRhs, p);
    for (int v = 0; v < nvariants; ++v) in.variants.push_back(rescaled(in.base, rv));
    for (int v = 0; v < nrhs; ++v) in.rhs.push_back(random_rhs(in.base.ncols(), rb));
    out.push_back(std::move(in));
    ++p;
  }
  return out;
}

std::vector<CscMatrix> cold_patterns(std::uint64_t seed, std::size_t count) {
  Rng rng = stream(seed, kColdPatterns);
  // Sizes come from Halton points, one sequence per family, so every
  // prefix (and every stretch of the stream a timed slice sees) spreads
  // evenly over the size ranges, and the size mix is the same for every
  // seed: the seed changes the family order, the mesh points, the network
  // trees and the values, not how much work the stream holds.
  std::uint64_t next_j[3] = {1, 1, 1};
  auto coord = [&](std::uint64_t j, int dim) {
    static constexpr std::uint64_t kBase[3] = {2, 3, 5};
    double u = 0.0;
    double scale = 1.0;
    for (std::uint64_t k = j; k > 0; k /= kBase[dim]) {
      scale /= static_cast<double>(kBase[dim]);
      u += static_cast<double>(k % kBase[dim]) * scale;
    }
    return u;
  };
  auto pick = [](double u, index_t lo, index_t hi) {
    return std::min(hi, lo + static_cast<index_t>(u * static_cast<double>(hi - lo + 1)));
  };
  std::set<std::tuple<bool, index_t, index_t>> grids_seen;
  std::vector<CscMatrix> out;
  out.reserve(count);
  std::vector<std::size_t> family;
  while (out.size() < count) {
    if (family.empty()) family = seeded_cycle(rng.next(), 3);
    const std::size_t f = family.back();
    family.pop_back();
    if (f == 0) {
      bool nine = false;
      index_t nx = 0, ny = 0;
      do {  // keep patterns distinct
        const std::uint64_t j = next_j[f]++;
        nx = pick(coord(j, 0), 16, 40);
        ny = pick(coord(j, 1), 16, 40);
        nine = coord(j, 2) < 0.5;
      } while (!grids_seen.insert({nine, nx, ny}).second);
      out.push_back(grid(nx, ny, nine, rng));
    } else if (f == 1) {
      const std::uint64_t j = next_j[f]++;
      out.push_back(knn_mesh(pick(coord(j, 0), 400, 1200),
                             static_cast<int>(pick(coord(j, 1), 4, 7)), rng));
    } else {
      const std::uint64_t j = next_j[f]++;
      out.push_back(power_network(pick(coord(j, 0), 500, 1500), rng));
    }
  }
  return out;
}

std::vector<std::size_t> seeded_cycle(std::uint64_t seed, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.next() % i)]);
  }
  return order;
}

}  // namespace spfbench
