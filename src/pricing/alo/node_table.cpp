// NodeTable construction: the dimensionless Chebyshev / tanh-sinh geometry
// of the boundary engine (alo_engine.hpp). Built once per (nodes, quad)
// accuracy setting and cached by Pricer sessions; everything here is setup
// cost, nothing here runs per quote.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "amopt/pricing/alo/alo_engine.hpp"

namespace amopt::pricing::alo {

namespace {

// Widest tanh-sinh level: t_max = 3 puts the extreme abscissae within
// ~2e-14 of +-1, close enough to kill the integrands' endpoint behaviour
// while keeping 1 -+ y (and so sp/sm) comfortably inside double range.
constexpr double kTMax = 3.0;

}  // namespace

std::size_t NodeTable::bytes() const noexcept {
  return sizeof(*this) + sizeof(double) * (xhat.size() + coeff.size() +
                                           y.size() + w.size() + sp.size() +
                                           sm.size());
}

std::shared_ptr<const NodeTable> build_node_table(int nodes, int quad) {
  nodes = std::clamp(nodes, 3, 64);
  quad = std::clamp(quad, 3, 401);
  auto tbl = std::make_shared<NodeTable>();
  tbl->nodes = nodes;
  tbl->quad = quad;

  // Chebyshev-Lobatto points of x = sqrt(tau/T), ascending in tau: node j
  // sits at standard angle (N-j) pi / N, so x_0 = 0 (tau = 0, where
  // H = 0 is pinned) and x_N = 1 (tau = T, where the premium reads).
  const int N = nodes - 1;
  tbl->xhat.resize(static_cast<std::size_t>(nodes));
  for (int j = 0; j <= N; ++j)
    tbl->xhat[static_cast<std::size_t>(j)] =
        0.5 * (1.0 - std::cos(std::numbers::pi * static_cast<double>(j) /
                              static_cast<double>(N)));

  // Interpolation matrix of the first-kind discrete cosine transform:
  // a_k = (2/N) sum''_i H(cos(i pi/N)) cos(pi i k / N), with the primed
  // sum halving i = 0 and i = N, and the k = 0 / k = N coefficients halved
  // once more so the interpolant evaluates as the PLAIN sum
  // p(z) = a_0 + sum_{k>=1} a_k T_k(z) (what the Clenshaw loop computes).
  // Our node j is standard node i = N - j, folded into the matrix here.
  tbl->coeff.assign(static_cast<std::size_t>(nodes) *
                        static_cast<std::size_t>(nodes),
                    0.0);
  for (int k = 0; k <= N; ++k) {
    const double vk = (k == 0 || k == N) ? 0.5 : 1.0;
    for (int j = 0; j <= N; ++j) {
      const int i = N - j;
      const double wi = (i == 0 || i == N) ? 0.5 : 1.0;
      tbl->coeff[static_cast<std::size_t>(k) * static_cast<std::size_t>(nodes) +
                 static_cast<std::size_t>(j)] =
          (2.0 / static_cast<double>(N)) * vk * wi *
          std::cos(std::numbers::pi * static_cast<double>(i) *
                   static_cast<double>(k) / static_cast<double>(N));
    }
  }

  // tanh-sinh rule on (-1, 1): y_i = tanh(pi/2 sinh(t_i)) at equispaced
  // t_i in [-t_max, t_max], weights h * (pi/2 cosh t) / cosh^2(pi/2 sinh t).
  const double h = 2.0 * kTMax / static_cast<double>(quad - 1);
  tbl->y.resize(static_cast<std::size_t>(quad));
  tbl->w.resize(static_cast<std::size_t>(quad));
  tbl->sp.resize(static_cast<std::size_t>(quad));
  tbl->sm.resize(static_cast<std::size_t>(quad));
  constexpr double kHalfPi = std::numbers::pi / 2.0;
  for (int i = 0; i < quad; ++i) {
    const double t = -kTMax + h * static_cast<double>(i);
    const double s = kHalfPi * std::sinh(t);
    const double y = std::tanh(s);
    const double c = std::cosh(s);
    tbl->y[static_cast<std::size_t>(i)] = y;
    tbl->w[static_cast<std::size_t>(i)] =
        h * kHalfPi * std::cosh(t) / (c * c);
    // 1 -+ y via the sech identity (1 - tanh s = sech s e^{-s} etc.) would
    // be more accurate at the extremes, but sqrt of the plain expression
    // already keeps ~7 significant digits at t_max = 3 — far below the
    // quadrature's own truncation error. Clamp against -0 round-off.
    tbl->sp[static_cast<std::size_t>(i)] =
        std::sqrt(std::max(0.5 * (1.0 + y), 0.0));
    tbl->sm[static_cast<std::size_t>(i)] =
        std::sqrt(std::max(0.5 * (1.0 - y), 0.0));
  }
  return tbl;
}

}  // namespace amopt::pricing::alo
