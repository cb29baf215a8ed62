#pragma once
// The `Engine::boundary` backend: American BSM vanilla quotes via the
// exercise-boundary integral-equation method (Andersen-Lake-Offengenden
// style; DESIGN.md §6) instead of a lattice/grid rollback.
//
// The put boundary B(tau) (tau = time to expiry) satisfies the Kim
// fixed point
//
//   B(tau) = K e^{-(r-q)tau} N(tau,B) / D(tau,B),
//   N = Phi(d-(tau, B/K)) + r Int_0^tau e^{ru} Phi(d-(tau-u, B(tau)/B(u))) du
//   D = Phi(d+(tau, B/K)) + q Int_0^tau e^{qu} Phi(d+(tau-u, B(tau)/B(u))) du
//
// solved by collocating the transformed boundary H(x) = (ln(B/X))^2,
// x = sqrt(tau/T), on Chebyshev-Lobatto nodes (H is near-polynomial in x;
// X = B(0+) = K min(1, r/q) is the known short-expiry limit), evaluating
// the interpolant with Clenshaw recurrences, and computing the integrals
// with tanh-sinh quadrature (the integrand's sqrt(tau-u) behaviour at the
// u -> tau endpoint is exactly what tanh-sinh damps). The American price
// then follows from the boundary through Kim's early-exercise premium,
// one more tanh-sinh sweep. Calls price through put-call symmetry:
// C(S,K,r,q) = P(K,S,q,r).
//
// Performance plane: every quadrature inner sum runs on the dispatched
// amopt::simd kernels (`bs_dpm` for the d+- geometry, `norm_cdf` for the
// libm-free Phi), the boundary is carried in LOG space so the hot loops
// evaluate no exp/log at all, and every per-request array comes from the
// thread's ScratchStack — with a prebuilt NodeTable a steady-state quote
// performs ZERO heap allocations (asserted in tests/test_alo_alloc.cpp).
// The dimensionless node geometry depends only on (nodes, quad), so
// `Pricer` sessions cache NodeTables next to the kernel-cache registry
// and hand them to every quote/IV trial.
//
// Accuracy contract (DESIGN.md §6): prices are NOT bit-comparable to the
// stencil engines — they agree with the fft engine to the documented
// convergence tolerance (tests/test_alo.cpp), and scalar/avx2 dispatch
// levels are bit-identical to each other while avx512 may differ in the
// last ulps (the §4 FMA rule).

#include <memory>
#include <span>
#include <vector>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/api.hpp"
#include "amopt/pricing/params.hpp"

namespace amopt::pricing::alo {

/// Dimensionless collocation/quadrature geometry shared by every request
/// with the same (nodes, quad) accuracy setting. Immutable once built;
/// sessions hold it by shared_ptr and hand out raw pointers per quote.
struct NodeTable {
  int nodes = 0;  ///< Chebyshev-Lobatto points over x = sqrt(tau/T)
  int quad = 0;   ///< tanh-sinh points per integral
  /// x of collocation node j, ascending: (1 - cos(j pi / N)) / 2 with
  /// N = nodes-1, so node 0 sits at tau = 0 and node N at tau = T.
  std::vector<double> xhat;
  /// Interpolation matrix, nodes x nodes row-major: Chebyshev coefficient
  /// a_k = sum_j coeff[k*nodes + j] * H_j for samples H_j at xhat order.
  std::vector<double> coeff;
  /// tanh-sinh abscissae y in (-1,1) (ascending) and weights w (both
  /// include the step h; Int_{-1}^{1} f ~= sum w_i f(y_i)).
  std::vector<double> y, w;
  /// sqrt((1 + y_i)/2) and sqrt((1 - y_i)/2): the only square roots the
  /// u-substitutions u = tau (1+y)/2 need, hoisted out of every quote.
  std::vector<double> sp, sm;

  /// Heap bytes held: the object and its six vectors.
  [[nodiscard]] std::size_t bytes() const noexcept;
};

/// Build the geometry for one accuracy setting. `nodes` is clamped to
/// [3, 64] and `quad` to [3, 401].
[[nodiscard]] std::shared_ptr<const NodeTable> build_node_table(int nodes,
                                                                int quad);

/// American vanilla put/call price under BSM. Accuracy comes from
/// cfg.alo_nodes / cfg.alo_quad / cfg.alo_iterations; `table` may be null
/// (a matching table is then built ad hoc, which allocates) and must
/// otherwise be a build_node_table result for the cfg's clamped knobs.
/// Requires R >= 0 and Y >= 0 (throws std::invalid_argument otherwise).
[[nodiscard]] double american_price(const OptionSpec& spec, Right right,
                                    const core::SolverConfig& cfg,
                                    const NodeTable* table);

/// The solved put exercise boundary B(tau) evaluated at the given times to
/// expiry (each clamped to [0, spec.expiry_years]). Inspection/test path —
/// allocates its result and its own table.
[[nodiscard]] std::vector<double> put_boundary(const OptionSpec& spec,
                                               const core::SolverConfig& cfg,
                                               std::span<const double> taus);

}  // namespace amopt::pricing::alo
