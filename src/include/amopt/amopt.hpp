#pragma once
// Umbrella header for the amopt library — a from-scratch reproduction of
// "Fast American Option Pricing using Nonlinear Stencils" (PPoPP 2024).
//
// Quick start:
//
//   #include <amopt/amopt.hpp>
//   amopt::pricing::OptionSpec spec;          // S, K, R, V, Y, expiry
//   double v = amopt::pricing::bopm::american_call_fft(spec, /*T=*/100000);
//
// See README.md for the architecture overview and DESIGN.md for the
// paper-to-module map.

#include "amopt/common/aligned.hpp"
#include "amopt/common/parallel.hpp"
#include "amopt/common/timer.hpp"
#include "amopt/core/lattice_solver.hpp"
#include "amopt/fft/convolution.hpp"
#include "amopt/fft/fft.hpp"
#include "amopt/poly/poly_power.hpp"
#include "amopt/pricing/api.hpp"
#include "amopt/pricing/bermudan.hpp"
#include "amopt/pricing/black_scholes.hpp"
#include "amopt/pricing/bopm.hpp"
#include "amopt/pricing/boundary.hpp"
#include "amopt/pricing/bsm_fdm.hpp"
#include "amopt/pricing/greeks.hpp"
#include "amopt/pricing/implied_vol.hpp"
#include "amopt/pricing/params.hpp"
#include "amopt/pricing/pricer.hpp"
#include "amopt/pricing/request.hpp"
#include "amopt/pricing/topm.hpp"
#include "amopt/baselines/baselines.hpp"
#include "amopt/service/client.hpp"
#include "amopt/service/fault.hpp"
#include "amopt/service/server.hpp"
#include "amopt/service/transport.hpp"
#include "amopt/service/wire.hpp"
#include "amopt/stencil/kernel_cache.hpp"
#include "amopt/stencil/linear_stencil.hpp"
