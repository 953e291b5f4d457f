/// The SIMD-backend lane-equivalence harness (DESIGN.md §14): the
/// lane-widened pencil sweep must reproduce the reference chain
/// *bitwise* at every supported lane width, because the per-point
/// expression trees are the same grid/fd_stencils.hpp templates
/// instantiated over Pack<W> lanes with FMA contraction pinned off.
/// Width 1 is the same sweep at Pack<1>, and the reference chain is the
/// oracle at every width.  Covered here:
///  * Pack<W> semantics: broadcast (−0.0, subnormal, ±inf, NaN payload),
///    load/store round-trips, strictly elementwise arithmetic vs scalar
///    ops.
///  * Plane resolution: resolved ring/field plane bases address exactly
///    what PlaneRing::lane_at and Field3 indexing address.
///  * Width policy: parse_width_override, the force_active_width hook.
///  * Lane sweep vs reference, bitwise: full interiors, the all-rim split,
///    threaded φ-slabs, and every line remainder.  Grid n has a radial
///    interior extent of n−4, and the sweep walks lines of n−4, n−2 and
///    n points; n ∈ {6, 7, 9, 12, 14} covers every remainder 0–7 at
///    W=8, lines shorter than the pack (n=6, 7 at W=8), and overlapped
///    last packs at every width.
///  * Identical flop charge and analytic lane-statistics accounting.
///  * 10-step RK4 trajectories at 1/2/4 ranks per panel, sync and
///    overlapped, at widths {1, 2, compiled max} (the scalar fallback
///    plus at least two lane widths on any x86-64 build).
/// The width-independent properties of the pencil sweep (φ-slab
/// partition, manufactured convergence, scratch footprint) are pinned
/// in test_rhs_fused.cpp and test_workspace_footprint.cpp.
#include "mhd/rhs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/flops.hpp"
#include "common/simd.hpp"
#include "grid/analytic_fields.hpp"
#include "grid/fd_stencils_simd.hpp"
#include "support/equivalence.hpp"

namespace yy::mhd {
namespace {

using testutil::test_grid;

// ---------------------------------------------------------------------
// Pack<W> semantics: the lane abstraction must be strictly elementwise
// IEEE-754 double arithmetic, bitwise-identical to the scalar ops.
// ---------------------------------------------------------------------

template <int W>
void expect_pack_semantics() {
  SCOPED_TRACE(W);
  using P = simd::Pack<W>;
  static_assert(P::width == W);
  static_assert(sizeof(typename P::V) == W * sizeof(double));

  // Broadcast must be exact for every payload: signed zero (a zero-init
  // + add would turn −0.0 into +0.0), the smallest subnormal, ±inf and
  // a quiet NaN that carries a payload.
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::bit_cast<double>(0x7ff8'0000'dead'beefULL);
  ASSERT_TRUE(std::isnan(qnan));
  for (double s : {-0.0, 1.0 / 3.0, -2.7e-308, 5.0e307,
                   std::numeric_limits<double>::denorm_min(), inf, -inf,
                   qnan}) {
    const P b(s);
    for (int i = 0; i < W; ++i) {
      const double l = b.lane(i);
      EXPECT_EQ(std::memcmp(&l, &s, sizeof(double)), 0)
          << "lane " << i << " of broadcast " << s;
    }
  }

  // Unaligned load/store round-trip, offset by one double.
  double src[W + 1], dst[W + 1];
  for (int i = 0; i < W + 1; ++i) src[i] = 0.1 * (i + 1) / 7.0;
  P::load(src + 1).store(dst + 1);
  for (int i = 1; i < W + 1; ++i) EXPECT_EQ(dst[i], src[i]);

  // Every operator, lane by lane, against the scalar expression.
  double a[W], b[W];
  for (int i = 0; i < W; ++i) {
    a[i] = std::sin(1.0 + i) / 3.0;
    b[i] = std::cos(2.0 + i) / 7.0;
  }
  const P pa = P::load(a), pb = P::load(b);
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ((pa + pb).lane(i), a[i] + b[i]);
    EXPECT_EQ((pa - pb).lane(i), a[i] - b[i]);
    EXPECT_EQ((pa * pb).lane(i), a[i] * b[i]);
    EXPECT_EQ((pa / pb).lane(i), a[i] / b[i]);
    EXPECT_EQ((-pa).lane(i), -a[i]);
    // Mixed scalar⊙pack forms (what the stencil bodies use).
    EXPECT_EQ((2.0 * pa).lane(i), 2.0 * a[i]);
    EXPECT_EQ((pa - 0.5).lane(i), a[i] - 0.5);
  }
  P acc = pa;
  acc += pb;
  P acc2 = pa;
  acc2 -= pb;
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ(acc.lane(i), a[i] + b[i]);
    EXPECT_EQ(acc2.lane(i), a[i] - b[i]);
  }
}

TEST(SimdPack, ElementwiseBitwiseSemanticsAtEveryWidth) {
  expect_pack_semantics<1>();
  expect_pack_semantics<2>();
  expect_pack_semantics<4>();
  expect_pack_semantics<8>();
}

// ---------------------------------------------------------------------
// Plane resolution: the lane accessors address a ring through one base
// per plane instead of a modulo per load, and must land on exactly the
// addresses of the per-point PlaneRing::lane_at.
// ---------------------------------------------------------------------

TEST(SimdPlanes, ResolvedRingAddressesMatchLaneAtAfterGrowingEnsure) {
  for (const int depth : {3, 5}) {
    SCOPED_TRACE(depth);
    common::PlaneRing ring;
    ring.ensure(2, 4, 7, 3, 5);
    // Grows depth and cover; the hull's (r, θ) origin is (2, 1), not 0.
    ring.ensure(depth, 2, 11, 1, 6);
    ASSERT_EQ(ring.depth(), depth);
    const common::PlaneRing& cring = ring;
    // ip runs several wraps past the depth.
    for (int ip = 1; ip < 4 * depth + 2; ++ip) {
      for (int it = 1; it < 6; ++it)
        for (int ir = 2; ir < 11; ++ir)
          *ring.lane_at(ir, it, ip + 1) = 1000.0 * ip + 10.0 * it + ir;
      const auto mut = fd::ring_planes<1>(ring, ip);
      const auto con = fd::ring_planes<1>(cring, ip);
      const auto own = fd::ring_planes<0>(ring, ip);
      for (int d = -1; d <= 1; ++d)
        for (int it = 1; it < 6; ++it)
          for (int ir = 2; ir < 11; ++ir) {
            EXPECT_EQ(mut.at(ir, it, d), ring.lane_at(ir, it, ip + d))
                << ir << "," << it << "," << ip << "+" << d;
            EXPECT_EQ(con.at(ir, it, d), cring.lane_at(ir, it, ip + d));
            if (d == 0) {
              EXPECT_EQ(own.at(ir, it, 0), ring.lane_at(ir, it, ip));
            }
          }
      // The newest plane reads back through its resolved base.
      const fd::PlaneLanes<2> lanes{con};
      EXPECT_EQ(lanes(2, 3, 1).lane(1), 1000.0 * ip + 30.0 + 3.0);
    }
  }
}

TEST(SimdPlanes, ResolvedFieldAddressesMatchIndexing) {
  const SphericalGrid g = test_grid(7);
  Fields s(g);
  const Fields& cs = s;
  for (int ip = 1; ip + 1 < g.Np(); ++ip) {
    const auto mut = fd::field_planes<1>(s.fr, ip);
    const auto con = fd::field_planes<1>(cs.fr, ip);
    for (int d = -1; d <= 1; ++d)
      for (int it = 0; it < g.Nt(); ++it)
        for (int ir = 0; ir < g.Nr(); ++ir) {
          EXPECT_EQ(mut.at(ir, it, d), &s.fr(ir, it, ip + d));
          EXPECT_EQ(con.at(ir, it, d), &cs.fr(ir, it, ip + d));
        }
  }
}

// ---------------------------------------------------------------------
// Width policy.
// ---------------------------------------------------------------------

TEST(SimdWidthPolicy, ParseOverride) {
  using simd::parse_width_override;
  EXPECT_EQ(parse_width_override(nullptr, 8), 8);
  EXPECT_EQ(parse_width_override("", 8), 8);
  EXPECT_EQ(parse_width_override("scalar", 8), 1);
  EXPECT_EQ(parse_width_override("1", 8), 1);
  EXPECT_EQ(parse_width_override("2", 8), 2);
  EXPECT_EQ(parse_width_override("4", 8), 4);
  EXPECT_EQ(parse_width_override("8", 8), 8);
  // Clamped down to the compiled max, never up.
  EXPECT_EQ(parse_width_override("8", 2), 2);
  EXPECT_EQ(parse_width_override("4", 1), 1);
  // Unrecognized values fall back to the max (3 is not a pack width).
  EXPECT_EQ(parse_width_override("3", 4), 4);
  EXPECT_EQ(parse_width_override("wide", 4), 4);
}

TEST(SimdWidthPolicy, CompiledMaxAndForceHook) {
  const int max = simd::compiled_max_width();
  EXPECT_TRUE(max == 1 || max == 2 || max == 4 || max == 8);
#if defined(__x86_64__) && !defined(YY_SIMD_DISABLED)
  EXPECT_GE(max, 2) << "x86-64 guarantees SSE2 double lanes";
#endif
  const int before = simd::active_width();
  EXPECT_GE(before, 1);
  simd::force_active_width(2);
  EXPECT_EQ(simd::active_width(), 2);
  simd::force_active_width(0);
  EXPECT_EQ(simd::active_width(), before);
}

// ---------------------------------------------------------------------
// Lane sweep vs the reference chain, bitwise.
// ---------------------------------------------------------------------

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

constexpr int kWidths[] = {1, 2, 4, 8};

class SimdSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimdSweep, MatchesReferenceBitwiseOnFullInteriorAtEveryWidth) {
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  Fields ref(g);
  Workspace ws(g);
  compute_rhs(g, eq, s, ref, ws, g.interior());

  for (int w : kWidths) {
    SCOPED_TRACE(w);
    Fields lanes(g);
    PencilWorkspace pw;
    compute_rhs_simd_width(w, g, eq, s, lanes, pw, g.interior());
    expect_fields_bitwise(ref, lanes, g.interior());
  }
}

TEST_P(SimdSweep, SplitInteriorPlusRimMatchesReferenceBitwise) {
  // On n = 6 the split interior collapses and every box is rim: the
  // lane sweep must handle arbitrary skinny boxes, not just interiors.
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  Fields ref(g);
  Workspace ws(g);
  compute_rhs(g, eq, s, ref, ws, g.interior());

  const RhsSplit sp = split_rhs_box(g.interior(), g.ghost());
  for (int w : kWidths) {
    SCOPED_TRACE(w);
    Fields lanes(g);
    PencilWorkspace pw;
    compute_rhs_simd_width(w, g, eq, s, lanes, pw, sp.interior);
    for (const IndexBox& b : sp.rim)
      compute_rhs_simd_width(w, g, eq, s, lanes, pw, b);
    expect_fields_bitwise(ref, lanes, g.interior());
  }
}

TEST_P(SimdSweep, ThreadedSlabsMatchReferenceBitwise) {
  const SphericalGrid g = test_grid(GetParam());
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  Fields ref(g);
  Workspace ws(g);
  compute_rhs(g, eq, s, ref, ws, g.interior());

  for (int w : kWidths) {
    for (int nthreads : {1, 2, 3, 7}) {
      SCOPED_TRACE(testing::Message() << "width " << w << " threads "
                                      << nthreads);
      Fields par(g);
      std::vector<PencilWorkspace> pool;
      compute_rhs_parallel_simd_width(w, g, eq, s, par, pool, g.interior(),
                                      nthreads);
      expect_fields_bitwise(ref, par, g.interior());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GridSizes, SimdSweep,
                         ::testing::Values(6, 7, 9, 12, 14));

TEST(SimdRhs, ActiveWidthDispatchMatchesExplicitWidth) {
  // compute_rhs_simd (what the integrators call) must be exactly the
  // forced-width sweep.
  const SphericalGrid g = test_grid(9);
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);

  for (int w : kWidths) {
    SCOPED_TRACE(w);
    Fields direct(g), dispatched(g);
    PencilWorkspace pw1, pw2;
    compute_rhs_simd_width(w, g, eq, s, direct, pw1, g.interior());
    simd::force_active_width(w);
    compute_rhs_simd(g, eq, s, dispatched, pw2, g.interior());
    simd::force_active_width(0);
    expect_fields_bitwise(direct, dispatched, g.interior());
  }
}

TEST(SimdRhs, ChargesIdenticalFlopsPerBoxAtEveryWidth) {
  // The honest flop count is backend- and width-independent: lanes
  // change the loop shape, not the arithmetic charged per point.
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
    EXPECT_GT(ref_count, 0u);
    for (int w : kWidths) {
      flops::global_reset();
      compute_rhs_simd_width(w, g, eq, s, out, pw, b);
      EXPECT_EQ(flops::global_count(), ref_count)
          << "width " << w << " box [" << b.r0 << "," << b.r1 << ")x[" << b.t0
          << "," << b.t1 << ")x[" << b.p0 << "," << b.p1 << ")";
    }
  }
}

TEST(SimdRhs, LaneStatsAccountForPacksAndTails) {
  const SphericalGrid g = test_grid(9);
  const EquationParams eq = test_eq();
  Fields s(g);
  fill_smooth(g, s);
  Fields out(g);
  PencilWorkspace pw;

  // Trips of one radial line: full packs from the start, plus one
  // overlapped pack ending at the line's end when the width does not
  // divide it; a line shorter than the pack is walked at half the
  // width, down to scalar for a single point.
  const auto line_trips = [](std::uint64_t len, std::uint64_t w) {
    while (w > 1 && len < w) w /= 2;
    return (len + w - 1) / w;
  };

  // The full interior has radial lines of 5/7/9 points; the one-point
  // radial slice has 1/3/5, so its combine lines are scalar by design.
  const IndexBox full = g.interior();
  IndexBox slice = full;
  slice.r1 = slice.r0 + 1;
  for (const IndexBox& box : {full, slice}) {
    // The sweep runs three radial-line families: the velocity/
    // temperature priming over box.grown(2) on np+4 φ-planes, the
    // derived fields over box.grown(1) on np+2 planes, and the combine
    // over box itself.
    const IndexBox e2 = box.grown(2), e1 = box.grown(1);
    const auto family = [](const IndexBox& b, std::uint64_t planes) {
      return std::pair<std::uint64_t, std::uint64_t>{
          static_cast<std::uint64_t>(b.t1 - b.t0) * planes,
          static_cast<std::uint64_t>(b.r1 - b.r0)};
    };
    const std::uint64_t np = static_cast<std::uint64_t>(box.p1 - box.p0);
    const std::pair<std::uint64_t, std::uint64_t> families[] = {
        family(e2, np + 4), family(e1, np + 2), family(box, np)};

    for (int w : kWidths) {
      SCOPED_TRACE(testing::Message() << "width " << w << " radial extent "
                                      << box.r1 - box.r0);
      simd::LaneStats want;
      for (const auto& [lines, len] : families) {
        want.iterations += lines * line_trips(len, w);
        if (w > 1 && len > 1) want.vector_points += lines * len;
        want.points += lines * len;
      }

      simd::lane_stats_reset();
      compute_rhs_simd_width(w, g, eq, s, out, pw, box);
      const simd::LaneStats st = simd::lane_stats_total();
      EXPECT_EQ(st.points, want.points);
      EXPECT_EQ(st.iterations, want.iterations);
      EXPECT_EQ(st.vector_points, want.vector_points);
      if (w == 1) {
        // Scalar fallback: every trip retires one point, nothing vector.
        EXPECT_EQ(st.vector_points, 0u);
        EXPECT_EQ(st.iterations, st.points);
        EXPECT_EQ(st.avg_vector_length(), 1.0);
        EXPECT_EQ(st.vector_coverage(), 0.0);
      } else if (box.r1 - box.r0 > 1) {
        // No line falls off the vector path; the overlapped last packs
        // keep the average below the width on these odd extents.
        EXPECT_EQ(st.vector_coverage(), 1.0);
        EXPECT_GT(st.avg_vector_length(), 1.0);
        EXPECT_LT(st.avg_vector_length(), static_cast<double>(w));
      } else {
        // Only the one-point combine lines run the scalar body.
        EXPECT_GT(st.vector_coverage(), 0.0);
        EXPECT_LT(st.vector_coverage(), 1.0);
      }
    }
  }
  simd::lane_stats_reset();
}

// ---------------------------------------------------------------------
// Trajectory equivalence: 10 RK4 steps of the distributed solver with
// cfg.simd_rhs on must land on the reference trajectory bitwise, in the
// synchronous and the overlapped stepping mode, at 1, 2 and 4 ranks per
// panel — swept over widths {1, 2, compiled max} via the
// force_active_width hook: width 1 is the scalar Pack<1> sweep, plus at
// least two genuine lane widths on any x86-64 build.  (YY_THREADS=2
// from the ctest registration makes the overlapped runs exercise the
// threaded sweeps too.)
// ---------------------------------------------------------------------

using testsupport::expect_bitwise_equal;
using testsupport::run_case;
using testsupport::RunResult;

std::vector<int> trajectory_widths() {
  std::vector<int> ws{1, 2, simd::compiled_max_width()};
  std::sort(ws.begin(), ws.end());
  ws.erase(std::unique(ws.begin(), ws.end()), ws.end());
  return ws;
}

class SimdTrajectory : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SimdTrajectory, BitwiseEqualToReferenceInSyncAndOverlapModes) {
  const auto [pt, pp] = GetParam();
  const int steps = 10;
  core::SimulationConfig cfg = testsupport::small_trajectory_config();

  cfg.overlap = false;
  const RunResult ref = run_case(cfg, pt, pp, steps);
  ASSERT_GT(ref.dt, 0.0);

  cfg.simd_rhs = true;
  for (int w : trajectory_widths()) {
    SCOPED_TRACE(testing::Message() << "width " << w);
    simd::force_active_width(w);
    cfg.overlap = false;
    const RunResult simd_sync = run_case(cfg, pt, pp, steps);
    expect_bitwise_equal(ref, simd_sync);
    cfg.overlap = true;
    const RunResult simd_over = run_case(cfg, pt, pp, steps);
    expect_bitwise_equal(ref, simd_over);
    simd::force_active_width(0);
  }
}

INSTANTIATE_TEST_SUITE_P(RankLayouts, SimdTrajectory,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 2},
                                           std::pair{2, 2}));

}  // namespace
}  // namespace yy::mhd
