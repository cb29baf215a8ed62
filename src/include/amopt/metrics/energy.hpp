#pragma once
// S9a: energy measurement for the Fig. 6 / Fig. 10 reproductions.
//
// The paper reads RAPL MSRs through `perf`. Inside containers RAPL is
// usually not readable, so EnergyMeter tries the powercap sysfs interface
// first and otherwise falls back to a documented linear model driven by the
// library's operation counters:
//
//     E_pkg = e_flop * flops
//     E_ram = e_byte * bytes
//
// The model's purpose is to preserve the figure's *shape* (energy tracks
// work, so the Θ(T^2) vs O(T log^2 T) gap appears); absolute joules are not
// claims. Coefficients are order-of-magnitude values for a Skylake-class
// server part (~0.5 nJ per double-precision op including core overheads,
// ~30 pJ per DRAM byte). There is no static-power term: it needs a
// duration, and wall time and the calling thread's CPU time both move with
// host load (a thread joining pooled work spins while it waits), which was
// enough to reorder a 9x difference in counted work at T = 4096.

#include <cstdint>
#include <string>
#include <vector>

#include "amopt/metrics/counters.hpp"

namespace amopt::metrics {

struct EnergySample {
  double pkg_joules = 0.0;
  double ram_joules = 0.0;
  bool hardware = false;  ///< true if read from RAPL, false if modeled
  [[nodiscard]] double total() const { return pkg_joules + ram_joules; }
};

struct EnergyModel {
  double joules_per_flop = 0.5e-9;
  double joules_per_byte = 30e-12;
};

class EnergyMeter {
 public:
  explicit EnergyMeter(EnergyModel model = {});

  [[nodiscard]] bool hardware_available() const noexcept {
    return !domains_.empty();
  }

  void start();
  [[nodiscard]] EnergySample stop();

 private:
  struct Domain {
    std::string energy_path;
    double max_range_uj = 0.0;
    double start_uj = 0.0;
    bool is_ram = false;
  };
  std::vector<Domain> domains_;
  EnergyModel model_;
  OpSnapshot ops_start_{};
};

}  // namespace amopt::metrics
