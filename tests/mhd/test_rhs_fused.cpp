/// The fused-sweep suite: properties of the cache-blocked pencil sweep
/// (DESIGN.md §11) that do not depend on the lane width.  The bitwise
/// lane-equivalence harness against the reference chain, at widths
/// 1/2/4/8, lives in test_rhs_simd.cpp.  Covered here:
///  * The φ-slab partition the threaded sweeps share tiles a box
///    exactly, with no gap or overlap.
///  * Manufactured-solution 2nd-order convergence of three RHS channels
///    through the sweep at width 1 (the Pack<1> path that YY_SIMD=scalar
///    and -DYY_SIMD=OFF select) and at the compiled max width.
#include "mhd/rhs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/simd.hpp"
#include "grid/analytic_fields.hpp"

namespace yy::mhd {
namespace {

using testutil::test_grid;

TEST(FusedRhs, PhiSlabsTileTheBoxExactly) {
  const IndexBox box{2, 9, 2, 14, 2, 21};
  for (int n : {1, 2, 3, 7, 19}) {
    SCOPED_TRACE(n);
    int covered = box.p0;
    for (int k = 0; k < n; ++k) {
      const IndexBox slab = phi_slab(box, n, k);
      EXPECT_EQ(slab.r0, box.r0);
      EXPECT_EQ(slab.r1, box.r1);
      EXPECT_EQ(slab.t0, box.t0);
      EXPECT_EQ(slab.t1, box.t1);
      EXPECT_EQ(slab.p0, covered);  // contiguous, no gap or overlap
      EXPECT_GE(slab.p1, slab.p0);
      covered = slab.p1;
    }
    EXPECT_EQ(covered, box.p1);
  }
}

// ---------------------------------------------------------------------
// Manufactured-solution convergence through the pencil sweep: the same
// second-order slopes tests/grid/test_fd_convergence.cpp pins for the
// standalone operators, measured on the sweep's outputs at width 1 and
// at the compiled max width.
// ---------------------------------------------------------------------

double wavy(const Vec3& x) {
  return std::sin(1.3 * x.x) * std::cos(0.7 * x.y) + std::sin(0.9 * x.z);
}
double wavy_lap(const Vec3& x) {
  return -(1.3 * 1.3 + 0.7 * 0.7) * std::sin(1.3 * x.x) * std::cos(0.7 * x.y) -
         0.81 * std::sin(0.9 * x.z);
}
Vec3 wavy_vec(const Vec3& x) {
  return {std::sin(x.y), std::sin(x.z), std::sin(x.x)};
}

/// Swept RHS of a state at rest with p = 4 + wavy: only (γ−1)κ∇²T
/// survives, evaluated through the pencil sweep at width `w` (full and
/// overlapped last packs on these odd-sized grids when w > 1).
double pressure_diffusion_error(int n, int w) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  eq.kappa = 0.7;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3& x) { return 4.0 + wavy(x); });
  PencilWorkspace pw;
  compute_rhs_simd_width(w, g, eq, s, rhs, pw, g.interior());
  const double gm1 = eq.gamma - 1.0;
  return testutil::max_error(g, rhs.p, g.interior(),
                             [&](int ir, int it, int ip) {
                               return gm1 * eq.kappa *
                                      wavy_lap(testutil::cart_of(g, ir, it, ip));
                             });
}

/// Divergence-free momentum through the swept continuity channel.
double continuity_error(int n, int w) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3&) { return 1.0; });
  testutil::fill_vector(g, s.fr, s.ft, s.fp, wavy_vec);
  PencilWorkspace pw;
  compute_rhs_simd_width(w, g, eq, s, rhs, pw, g.interior());
  return testutil::max_error(g, rhs.rho, g.interior(),
                             [](int, int, int) { return 0.0; });
}

/// A = (sin y, sin z, sin x) ⇒ j = A, so ∂A/∂t → −ηA through the swept
/// induction channel.
double induction_error(int n, int w) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  eq.eta = 0.4;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3&) { return 1.0; });
  testutil::fill_vector(g, s.ar, s.at, s.ap, wavy_vec);
  PencilWorkspace pw;
  compute_rhs_simd_width(w, g, eq, s, rhs, pw, g.interior());
  double err = 0.0;
  for_box(g.interior(), [&](int ir, int it, int ip) {
    const Vec3 e = testutil::to_spherical(
        g, it, ip, wavy_vec(testutil::cart_of(g, ir, it, ip)) * (-eq.eta));
    err = std::max({err, std::abs(rhs.ar(ir, it, ip) - e.x),
                    std::abs(rhs.at(ir, it, ip) - e.y),
                    std::abs(rhs.ap(ir, it, ip) - e.z)});
  });
  return err;
}

/// Width 1 and the compiled max (one entry when the build is scalar).
std::vector<int> convergence_widths() {
  std::vector<int> ws{1, simd::compiled_max_width()};
  ws.erase(std::unique(ws.begin(), ws.end()), ws.end());
  return ws;
}

class FusedConvergence
    : public ::testing::TestWithParam<std::tuple<double (*)(int, int), int>> {
};

TEST_P(FusedConvergence, SecondOrderRatioBetweenRefinements) {
  // error(n) ~ C h² with h ∝ 1/(n−1): refining n−1 by 2× must shrink
  // the error by ≈4×; accept ≥3× to absorb higher-order terms.
  const auto [err, w] = GetParam();
  const double e1 = err(13, w);
  const double e2 = err(25, w);  // h halves (12 -> 24 intervals)
  EXPECT_GT(e1 / e2, 3.0) << "coarse=" << e1 << " fine=" << e2;
  EXPECT_LT(e2, e1);
}

INSTANTIATE_TEST_SUITE_P(
    ManufacturedSolutions, FusedConvergence,
    ::testing::Combine(::testing::Values(&pressure_diffusion_error,
                                         &continuity_error,
                                         &induction_error),
                       ::testing::ValuesIn(convergence_widths())));

}  // namespace
}  // namespace yy::mhd
