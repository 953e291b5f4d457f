/// The fused-sweep equivalence harness (DESIGN.md §11): the scalar
/// cache-blocked pencil sweep — the SIMD backend's width-1 path — must
/// reproduce the reference operator-at-a-time chain *bitwise* — same
/// per-point expression trees instantiated twice, no FMA contraction —
/// on full interiors and on the interior/rim split (including the
/// all-rim minimum patch).  Manufactured solutions additionally pin the
/// fused path's second-order convergence, and the software flop counter
/// must charge identically for both.  The threaded φ-slab sweeps and
/// the 10-step trajectories run at width 1 in test_rhs_simd.cpp.
#include "mhd/rhs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/flops.hpp"
#include "grid/analytic_fields.hpp"

namespace yy::mhd {
namespace {

using testutil::test_grid;

void fill_smooth(const SphericalGrid& g, Fields& s) {
  testutil::fill_scalar(g, s.rho, [](const Vec3& x) {
    return 1.0 + 0.1 * std::sin(x.x) * std::cos(x.y);
  });
  testutil::fill_scalar(g, s.p, [](const Vec3& x) {
    return 1.0 + 0.05 * std::cos(2.0 * x.z);
  });
  testutil::fill_vector(g, s.fr, s.ft, s.fp, [](const Vec3& x) {
    return Vec3{0.2 * x.y, -0.1 * x.z, 0.3 * std::sin(x.x)};
  });
  testutil::fill_vector(g, s.ar, s.at, s.ap, [](const Vec3& x) {
    return Vec3{0.02 * x.z * x.z, 0.01 * x.x, 0.03 * std::cos(x.y)};
  });
}

EquationParams test_eq() {
  EquationParams eq;
  eq.mu = 2e-3;
  eq.kappa = 1e-3;
  eq.eta = 4e-3;
  eq.g0 = 1.5;
  eq.omega = {0.3, 0.0, 5.0};
  return eq;
}

void expect_fields_bitwise(const Fields& a, const Fields& b,
                           const IndexBox& box) {
  for_box(box, [&](int ir, int it, int ip) {
    for (int f = 0; f < Fields::kNumFields; ++f) {
      ASSERT_EQ((*a.all()[f])(ir, it, ip), (*b.all()[f])(ir, it, ip))
          << "field " << f << " at " << ir << "," << it << "," << ip;
    }
  });
}

class FusedSweep : public ::testing::TestWithParam<int> {};

TEST_P(FusedSweep, MatchesReferenceBitwiseOnFullInterior) {
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  Fields ref(g), fused(g);
  Workspace ws(g);
  compute_rhs(g, eq, s, ref, ws, g.interior());
  PencilWorkspace pw;
  compute_rhs_fused(g, eq, s, fused, pw, g.interior());

  expect_fields_bitwise(ref, fused, g.interior());
}

TEST_P(FusedSweep, SplitInteriorPlusRimMatchesReferenceBitwise) {
  // n = 6 is the minimum decomposable size with ghost 2: the interior
  // collapses and the fused sweep runs on rim boxes only.
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  Fields ref(g), fused(g);
  Workspace ws(g);
  compute_rhs(g, eq, s, ref, ws, g.interior());

  const RhsSplit sp = split_rhs_box(g.interior(), g.ghost());
  PencilWorkspace pw;
  compute_rhs_fused(g, eq, s, fused, pw, sp.interior);
  for (const IndexBox& b : sp.rim) compute_rhs_fused(g, eq, s, fused, pw, b);

  expect_fields_bitwise(ref, fused, g.interior());
}

INSTANTIATE_TEST_SUITE_P(GridSizes, FusedSweep, ::testing::Values(6, 9, 14));

TEST(FusedRhs, ChargesIdenticalFlopsPerBox) {
  // Both backends must report the same honest flop count over every
  // box shape — the perf model's flops_per_point_per_step is
  // backend-independent by construction.
  const SphericalGrid g = test_grid(9);
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);
  Fields out(g);
  Workspace ws(g);
  PencilWorkspace pw;

  const RhsSplit sp = split_rhs_box(g.interior(), g.ghost());
  std::vector<IndexBox> boxes{g.interior(), sp.interior};
  boxes.insert(boxes.end(), sp.rim.begin(), sp.rim.end());
  for (const IndexBox& b : boxes) {
    if (b.volume() == 0) continue;
    flops::global_reset();
    compute_rhs(g, eq, s, out, ws, b);
    const auto ref_count = flops::global_count();
    flops::global_reset();
    compute_rhs_fused(g, eq, s, out, pw, b);
    EXPECT_EQ(flops::global_count(), ref_count)
        << "box [" << b.r0 << "," << b.r1 << ")x[" << b.t0 << "," << b.t1
        << ")x[" << b.p0 << "," << b.p1 << ")";
    EXPECT_GT(ref_count, 0u);
  }
}

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
// Manufactured-solution convergence through the fused path: the same
// second-order slopes tests/grid/test_fd_convergence.cpp pins for the
// standalone operators, but measured on compute_rhs_fused outputs.
// ---------------------------------------------------------------------

// Smooth fields with known derivatives (shared with the FD sweep).
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

/// Fused RHS of a state at rest (ρ = 1, f = 0, A = 0) with p = 4 + wavy:
/// every term of eq. (4) vanishes except (γ−1)κ∇²T with T = p.
double pressure_diffusion_error(int n) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  eq.kappa = 0.7;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3& x) { return 4.0 + wavy(x); });
  PencilWorkspace pw;
  compute_rhs_fused(g, eq, s, rhs, pw, g.interior());
  const double gm1 = eq.gamma - 1.0;
  return testutil::max_error(g, rhs.p, g.interior(),
                             [&](int ir, int it, int ip) {
                               return gm1 * eq.kappa *
                                      wavy_lap(testutil::cart_of(g, ir, it, ip));
                             });
}

/// ∂ρ/∂t = −∇·f with the divergence-free f = (sin y, sin z, sin x):
/// the fused continuity channel must converge to zero at 2nd order.
double continuity_error(int n) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3&) { return 1.0; });
  testutil::fill_vector(g, s.fr, s.ft, s.fp, wavy_vec);
  PencilWorkspace pw;
  compute_rhs_fused(g, eq, s, rhs, pw, g.interior());
  return testutil::max_error(g, rhs.rho, g.interior(),
                             [](int, int, int) { return 0.0; });
}

/// At rest with A = (sin y, sin z, sin x): ∇·A = 0 and ∇²A = −A, so
/// j = ∇×∇×A = A and the fused induction channel must converge to
/// ∂A/∂t = −ηA at 2nd order.
double induction_error(int n) {
  const SphericalGrid g = test_grid(n);
  EquationParams eq;
  eq.eta = 0.4;
  Fields s(g), rhs(g);
  testutil::fill_scalar(g, s.rho, [](const Vec3&) { return 1.0; });
  testutil::fill_scalar(g, s.p, [](const Vec3&) { return 1.0; });
  testutil::fill_vector(g, s.ar, s.at, s.ap, wavy_vec);
  PencilWorkspace pw;
  compute_rhs_fused(g, eq, s, rhs, pw, g.interior());
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

class FusedConvergence
    : public ::testing::TestWithParam<double (*)(int)> {};

TEST_P(FusedConvergence, SecondOrderRatioBetweenRefinements) {
  // error(n) ~ C h² with h ∝ 1/(n−1): refining n−1 by 2× must shrink
  // the error by ≈4×; accept ≥3× to absorb higher-order terms.
  const auto err = GetParam();
  const double e1 = err(13);
  const double e2 = err(25);  // h halves (12 -> 24 intervals)
  EXPECT_GT(e1 / e2, 3.0) << "coarse=" << e1 << " fine=" << e2;
  EXPECT_LT(e2, e1);
}

INSTANTIATE_TEST_SUITE_P(ManufacturedSolutions, FusedConvergence,
                         ::testing::Values(&pressure_diffusion_error,
                                           &continuity_error,
                                           &induction_error));

}  // namespace
}  // namespace yy::mhd
