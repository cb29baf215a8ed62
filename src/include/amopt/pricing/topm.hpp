#pragma once
// American call pricing under the Trinomial Option Pricing Model (paper §3
// and Appendix A). Same red/green structure as BOPM, but each cell depends
// on three children, so the dependency cone widens 2 cells/step; the
// lattice solver handles this through its cone-growth parameter.

#include <cstdint>

#include "amopt/core/lattice_solver.hpp"
#include "amopt/pricing/params.hpp"

namespace amopt::pricing::topm {

/// Exercise-value oracle: value(i, j) = S * u^(j-i) - K, j in [0, 2i].
class CallGreen final : public core::LatticeGreen {
 public:
  CallGreen(const OptionSpec& spec, const TopmParams& prm)
      : up_(prm.log_u, prm.T), S_(spec.S), K_(spec.K) {}
  [[nodiscard]] double value(std::int64_t i, std::int64_t j) const override {
    return S_ * up_(j - i) - K_;
  }

 private:
  PowerTable up_;
  double S_, K_;
};

[[nodiscard]] core::LatticeRow expiry_row(const TopmParams& prm,
                                          const core::LatticeGreen& green);

/// `kernels` is an optional shared cache (see pricing::price_batch); null
/// falls back to a private one, otherwise it must be built from stencil
/// {{s0, s1, s2}}.
[[nodiscard]] double american_call_fft(
    const OptionSpec& spec, std::int64_t T, core::SolverConfig cfg = {},
    stencil::KernelCache* kernels = nullptr);
/// The paper's `vanilla-topm` reference: Θ(T^2) looping code.
[[nodiscard]] double american_call_vanilla(const OptionSpec& spec,
                                           std::int64_t T);
[[nodiscard]] double american_call_vanilla_parallel(const OptionSpec& spec,
                                                    std::int64_t T);

[[nodiscard]] double american_put_vanilla(const OptionSpec& spec,
                                          std::int64_t T);
/// Fast put via put-call symmetry (see bopm::american_put_fft).
[[nodiscard]] double american_put_fft(const OptionSpec& spec, std::int64_t T,
                                      core::SolverConfig cfg = {});

[[nodiscard]] double european_call_vanilla(const OptionSpec& spec,
                                           std::int64_t T);
[[nodiscard]] double european_call_fft(
    const OptionSpec& spec, std::int64_t T,
    stencil::KernelCache* kernels = nullptr);

}  // namespace amopt::pricing::topm
