/// \file config.hpp
/// One configuration object describing a whole geodynamo run: grid
/// resolution, shell geometry, physical parameters (given in the Yin
/// frame; the Yang frame's rotation axis follows from eq. 1), initial
/// conditions and CFL safety factor.
#pragma once

#include "mhd/init.hpp"
#include "mhd/integrator.hpp"
#include "mhd/params.hpp"

namespace yy::core {

struct SimulationConfig {
  // Resolution: radial nodes and core-span horizontal nodes per panel
  // (the panel's extended interior adds the auto-margin cells).
  int nr = 17;
  int nt_core = 17;
  int np_core = 49;

  mhd::ShellSpec shell;
  mhd::ThermalBc thermal;
  mhd::EquationParams eq;  ///< omega interpreted in the Yin frame
  mhd::InitialConditions ic;

  double cfl_safety = 0.25;

  /// Time scheme; the paper uses classical RK4 (§III), the others exist
  /// for ablation and order-verification tests.
  mhd::TimeScheme scheme = mhd::TimeScheme::rk4;

  /// Overlapped stepping: the distributed solver hides halo/overset
  /// exchange latency behind the interior RHS sweep of every stage fill
  /// (bitwise-identical trajectories, every scheme; see DESIGN.md §10).
  bool overlap = false;

  /// RHS backend: false = the reference operator-at-a-time chain (the
  /// equivalence oracle), true = the SIMD pencil sweep (bitwise-
  /// identical trajectories; see DESIGN.md §11, §14).  Composes with
  /// `overlap`.  Lane width comes from the build's ISA, overridable
  /// with YY_SIMD=scalar|1|2|4|8; width 1 is the same sweep at Pack<1>.
  bool simd_rhs = false;

  /// The backend `simd_rhs` selects.
  mhd::RhsBackend rhs_backend() const {
    return simd_rhs ? mhd::RhsBackend::simd : mhd::RhsBackend::reference;
  }
};

}  // namespace yy::core
