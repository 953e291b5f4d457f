/// The tentpole harness: overlapped stepping (cfg.overlap = true) must
/// reproduce the synchronous trajectories *bitwise* — same gathered
/// fields on both panels, same global energies — across 1, 2 and 4
/// ranks per panel, over a 10-step RK4 run.  With YY_THREADS > 1 (the
/// ctest registration exports YY_THREADS=2) this also pins the threaded
/// interior sweep and axpy updates to the serial results.
#include <gtest/gtest.h>

#include <utility>

#include "support/equivalence.hpp"

namespace yy::core {
namespace {

// Shared run/compare helpers: tests/support/equivalence.hpp.
using testsupport::expect_bitwise_equal;
using testsupport::run_case;
using testsupport::RunResult;

SimulationConfig overlap_config() { return testsupport::small_trajectory_config(); }

class OverlapEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(OverlapEquivalence, BitwiseEqualToSynchronous) {
  const auto [pt, pp] = GetParam();
  const int steps = 10;
  SimulationConfig cfg = overlap_config();

  cfg.overlap = false;
  const RunResult sync = run_case(cfg, pt, pp, steps);
  cfg.overlap = true;
  const RunResult over = run_case(cfg, pt, pp, steps);

  ASSERT_GT(sync.dt, 0.0);
  expect_bitwise_equal(sync, over);
}

// 1 rank per panel: overset-only exchange (all four halo sides are
// proc_null).  1×2 adds a φ halo; 2×2 runs θ+φ halos and overset
// together, with a genuinely decomposed cart grid in both directions.
INSTANTIATE_TEST_SUITE_P(RankLayouts, OverlapEquivalence,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 2},
                                           std::pair{2, 2}));

// Euler and RK2 step through the same integrator path as RK4: rk2's
// midpoint fill runs overlapped (post → interior → finish → rim), and
// both schemes thread their RHS sweeps under the hooks.  The overlap
// flag must be bitwise invisible there too.
class OverlapSchemes : public ::testing::TestWithParam<mhd::TimeScheme> {};

TEST_P(OverlapSchemes, BitwiseEqualToSynchronous) {
  SimulationConfig cfg = overlap_config();
  cfg.scheme = GetParam();
  cfg.overlap = false;
  const RunResult sync = run_case(cfg, 1, 2, 4);
  cfg.overlap = true;
  const RunResult over = run_case(cfg, 1, 2, 4);
  ASSERT_GT(sync.dt, 0.0);
  expect_bitwise_equal(sync, over);
}

INSTANTIATE_TEST_SUITE_P(
    EulerAndRk2, OverlapSchemes,
    ::testing::Values(mhd::TimeScheme::euler, mhd::TimeScheme::rk2),
    [](const ::testing::TestParamInfo<mhd::TimeScheme>& info) {
      return mhd::scheme_name(info.param);
    });

}  // namespace
}  // namespace yy::core
