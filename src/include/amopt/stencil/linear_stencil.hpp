#pragma once
// S4: linear 1D stencils and their multi-step application.
//
// A `LinearStencil` describes one backward-induction step
//
//     out[j] = sum_k taps[k] * in[j + k]
//
// — every dependency lies to the right of the output cell. The lattice
// models are born this way; the centered BSM finite-difference stencil
// takes this form under the index map of pricing/bsm_fdm.hpp (taps
// {a, c, b}). Applying `h` steps over a region where the update stays
// linear is one correlation with `poly::power(taps, h)`;
// `apply_steps_naive` is the step-by-step oracle the tests compare against.

#include <cstdint>
#include <span>
#include <vector>

namespace amopt::stencil {

struct LinearStencil {
  std::vector<double> taps;  ///< at least one tap

  [[nodiscard]] std::size_t width() const noexcept { return taps.size(); }
  /// Cells of spatial support lost per step.
  [[nodiscard]] std::int64_t cone_growth() const noexcept {
    return static_cast<std::int64_t>(taps.size()) - 1;
  }
};

/// Apply `h` steps of `st` to `in`, shrinking the row by cone_growth() cells
/// per step; output index j corresponds to input index j.
[[nodiscard]] std::vector<double> apply_steps_naive(const LinearStencil& st,
                                                    std::span<const double> in,
                                                    std::uint64_t h);

}  // namespace amopt::stencil
