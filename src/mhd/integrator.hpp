/// \file integrator.hpp
/// Explicit time integration of the MHD system over a *system* of grid
/// patches advanced in lockstep.  The paper uses the classical
/// fourth-order Runge-Kutta method (§III); forward Euler and the
/// midpoint (RK2) scheme are provided for ablation and for the
/// temporal-convergence tests that pin each scheme's order.
///
/// A "patch" is one Fields object on one SphericalGrid with its own
/// EquationParams (Yin and Yang differ only in the rotation-axis
/// components).  The serial solver passes the two whole panels; the
/// distributed solver passes this rank's single local patch.  After
/// every stage the caller-supplied fill callback re-establishes all
/// ghost data (physical walls, halo exchange, overset interpolation) on
/// the stage states — the overset coupling is what forces the panels to
/// advance together.
#pragma once

#include <functional>
#include <vector>

#include "grid/spherical_grid.hpp"
#include "mhd/params.hpp"
#include "mhd/rhs.hpp"
#include "mhd/state.hpp"

namespace yy::mhd {

enum class TimeScheme {
  euler,  ///< forward Euler (1st order)
  rk2,    ///< explicit midpoint (2nd order)
  rk4,    ///< classical Runge-Kutta (4th order, the paper's choice)
};

/// Formal order of accuracy of a scheme.
constexpr int scheme_order(TimeScheme s) {
  switch (s) {
    case TimeScheme::euler: return 1;
    case TimeScheme::rk2: return 2;
    case TimeScheme::rk4: return 4;
  }
  return 0;
}

constexpr const char* scheme_name(TimeScheme s) {
  switch (s) {
    case TimeScheme::euler: return "euler";
    case TimeScheme::rk2: return "rk2";
    case TimeScheme::rk4: return "rk4";
  }
  return "?";
}

struct PatchDef {
  const SphericalGrid* grid = nullptr;
  EquationParams eq;
  Fields* state = nullptr;
};

/// Ghost-refresh callback: invoked with the stage states (one per
/// patch, same order as the PatchDefs).
using FillFn = std::function<void(const std::vector<Fields*>&)>;

/// Split ghost-fill protocol for the overlapped stepping mode: post()
/// launches the exchanges (and must leave the states' *owned* data —
/// including radial ghosts — valid, so the interior RHS can run while
/// messages are in flight); finish() completes them and re-establishes
/// the horizontal ghost frame.  post() immediately followed by
/// finish() must be exactly equivalent to one synchronous fill.
struct OverlapHooks {
  FillFn post;
  FillFn finish;
  /// Stencil reach of the RHS in θ/φ (the grid's ghost width): the
  /// interior sweep stays this many nodes away from the patch edge.
  int rim_width = 0;
};

class Integrator {
 public:
  /// Allocates stage storage for the given patch shapes; `backend`
  /// selects the RHS evaluation (bitwise-equivalent paths, rhs.hpp).
  Integrator(TimeScheme scheme, const std::vector<const SphericalGrid*>& grids,
             RhsBackend backend = RhsBackend::reference);

  /// Advances every patch by dt.  The incoming states must already
  /// have valid ghosts; on return the new states have valid ghosts
  /// (fill is invoked on them last).
  ///
  /// With `overlap` non-null, every stage fill after the first RHS runs
  /// as post → interior RHS (on the rim-shrunk box, threaded per
  /// YY_THREADS) → finish → rim RHS, hiding exchange latency behind the
  /// interior sweep — for every scheme.  The RHS is a pointwise
  /// function of the state's stencil neighbourhood, so the result is
  /// bitwise identical to the synchronous path.  The final fill of the
  /// new states stays synchronous in both modes.
  void step(const std::vector<PatchDef>& patches, double dt,
            const FillFn& fill, const OverlapHooks* overlap = nullptr);

 private:
  TimeScheme scheme_;
  RhsBackend backend_;
  std::vector<const SphericalGrid*> grids_;
  std::vector<Fields> k_;      // stage derivative
  std::vector<Fields> stage_;  // stage state (rk2, rk4)
  std::vector<Fields> acc_;    // accumulated solution (rk4)
  // Per patch, one scratch entry per φ-slab thread; entry 0 also
  // serves the unthreaded sweeps (rhs.hpp parallel wrappers).
  std::vector<std::vector<Workspace>> ws_;        // reference backend
  std::vector<std::vector<PencilWorkspace>> pw_;  // simd backend
};

}  // namespace yy::mhd
