#pragma once
// American put pricing under the Black-Scholes-Merton model via the
// explicit finite-difference scheme of paper §4. `american_put_fft` is the
// paper's O(T log^2 T) trapezoid algorithm, run on core::LatticeSolver;
// `american_put_vanilla*` are the Θ(T^2) projection loops (`vanilla-bsm`
// in the paper's plots).
//
// The index map that turns the FDM grid into a shrinking-boundary lattice.
// FDM step n in [0, T] (n = 0 at expiry), space index k (s = k*ds =
// ln(x/K)); the price is read between k_read and k_read + 1 at n = T.
//   * lattice row i in [1, T+1] is step n = T+1-i (row T+1 is the payoff);
//   * cell j of row i is k = k_read + i - j, so row i's cells [0, 2i] are
//     exactly the dependency cone of the two read cells (j = 1, 0 at row 1);
//   * the centered update b*v(k-1) + c*v(k) + a*v(k+1) is the lattice
//     correlation with taps {a, c, b};
//   * the FDM green prefix k <= f_n is the lattice green suffix j > q_i,
//     q_i = k_read + i - f_n - 1, and Theorem 4.3 (f moves at most one
//     cell left per step) is the lattice invariant "q stays or moves one
//     cell left".

#include <cmath>
#include <cstdint>
#include <vector>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/params.hpp"

namespace amopt::pricing::bsm {

/// Dimensionless put exercise value 1 - e^{k ds} at the mapped cell
/// k = k_read + i - j, cached in a table over every cell the solver can
/// touch (i in [0, T+1], j in [0, 2i+2]) and computed exactly outside it.
class PutGreen final : public core::LatticeGreen {
 public:
  PutGreen(double ds, std::int64_t k_read, std::int64_t T);
  [[nodiscard]] double value(std::int64_t i, std::int64_t j) const override {
    const std::int64_t m = i - j + off_;
    if (m >= 0 && m < static_cast<std::int64_t>(table_.size()))
      return table_[static_cast<std::size_t>(m)];
    return -std::expm1(static_cast<double>(k_read_ + i - j) * ds_);
  }

 private:
  std::vector<double> table_;
  double ds_;
  std::int64_t k_read_;
  std::int64_t off_;
};

/// Where the price is read: the target s* = ln(S/K) sits between the cells
/// k_read and k_read + 1 of the last FDM row.
struct FdmLayout {
  std::int64_t k_read = 0;   ///< floor(s*/ds): price read between k_read, k_read+1
  double theta = 0.0;        ///< interpolation weight toward k_read+1
};
/// Throws std::invalid_argument when |s*/ds| >= 2^53 (a vanishing vol): the
/// cell index would not be an exact integer, let alone fit the grid.
[[nodiscard]] FdmLayout make_layout(const BsmParams& prm);

/// The payoff row (lattice row T+1, FDM step 0) under the index map: the
/// payoff max(1 - e^{k ds}, 0) is green exactly for k <= 0, so the red
/// prefix is the cells k in [1, k_read + T + 1] — all zeros — clipped to
/// the row's 2T+3 cells.
[[nodiscard]] core::LatticeRow payoff_row(std::int64_t T, const FdmLayout& lay);

/// `kernels` is an optional shared cache (see pricing::price_batch): all
/// strikes of a BSM chain derive the same (b, c, a), so one cache serves
/// the whole ladder. Null falls back to a private one; otherwise it must be
/// built from the mapped stencil {{a, c, b}} of derive_bsm(spec, T).
[[nodiscard]] double american_put_fft(
    const OptionSpec& spec, std::int64_t T, core::SolverConfig cfg = {},
    stencil::KernelCache* kernels = nullptr);
[[nodiscard]] double american_put_vanilla(const OptionSpec& spec,
                                          std::int64_t T);
[[nodiscard]] double american_put_vanilla_parallel(const OptionSpec& spec,
                                                   std::int64_t T);

/// European put on the same grid (projection disabled): pure linear
/// evolution, one kernel power + correlation. Convergence anchor against
/// bs::european_put.
[[nodiscard]] double european_put_fdm(const OptionSpec& spec, std::int64_t T);

/// Early-exercise boundary k_n for n in [0, T] from the naive grid
/// (test/inspection helper, Θ(T^2)).
[[nodiscard]] std::vector<std::int64_t> exercise_boundary_vanilla(
    const OptionSpec& spec, std::int64_t T);

}  // namespace amopt::pricing::bsm
