/// \file rhs_simd.cpp
/// The SIMD RHS backend: the fused rolling-pencil sweep of
/// rhs_fused.cpp with its radial inner loops widened to W-lane packs
/// (common/simd.hpp); width 1 runs that scalar sweep itself.  Every
/// radial line runs in full-width packs: when W does not divide the
/// line, the last pack is shifted back to end at the line's end and
/// recomputes a few points the previous pack wrote.
///
/// Bitwise contract (DESIGN.md §14): every per-point body below is the
/// same grid/fd_stencils.hpp template the scalar fused sweep
/// instantiates — the accessor types change (FieldLanes / RingLanes /
/// LaneMetrics instead of Field3 / PlaneRing::View / SphericalGrid),
/// the source expressions do not.  Pack arithmetic is strictly
/// elementwise and the build pins -ffp-contract=off, so lane i of any
/// pack equals the scalar evaluation at ir+i bit for bit — which is
/// also why a point computed twice by overlapping packs is stored with
/// the same bytes both times.  The equivalence suite
/// (tests/mhd/test_rhs_simd.cpp) pins this for every width, split,
/// thread count, and line remainder.
///
/// This TU is compiled with the native ISA flags (see src/mhd/
/// CMakeLists.txt) so the packs lower to real vector instructions; the
/// rest of the tree keeps the portable baseline flags.
#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "common/microtask.hpp"
#include "common/simd.hpp"
#include "grid/fd_ops.hpp"
#include "grid/fd_stencils.hpp"
#include "grid/fd_stencils_simd.hpp"
#include "mhd/derived.hpp"
#include "mhd/rhs.hpp"

namespace yy::mhd {
namespace {

/// Everything a sweep needs, bundled so the per-point templates take
/// one argument; all values match what compute_rhs_fused computes.
struct SweepCtx {
  const SphericalGrid& g;
  const EquationParams& eq;
  const Fields& state;
  Fields& rhs;
  PencilWorkspace& pw;
  IndexBox box, e2, e1;
  double c_r, c_t, c_p, irr, itt, ipp;
  double c43, gm1, cstr;
};

/// v = f/ρ, T = p/ρ at lanes ir…ir+W−1 of plane q (fill_vt body).
template <int W>
inline void vt_point(const SweepCtx& c, int ir, int it, int q) {
  using P = simd::Pack<W>;
  const fd::FieldLanes<W> rho{&c.state.rho}, fr{&c.state.fr},
      ft{&c.state.ft}, fp{&c.state.fp}, p{&c.state.p};
  const P inv_rho = 1.0 / rho(ir, it, q);
  (fr(ir, it, q) * inv_rho).store(c.pw.vr.lane_at(ir, it, q));
  (ft(ir, it, q) * inv_rho).store(c.pw.vt.lane_at(ir, it, q));
  (fp(ir, it, q) * inv_rho).store(c.pw.vp.lane_at(ir, it, q));
  (p(ir, it, q) * inv_rho).store(c.pw.T.lane_at(ir, it, q));
}

/// B = ∇×A, ∇·v, ∇×v at lanes ir…ir+W−1 of plane q (fill_derived body).
template <int W>
inline void derived_point(const SweepCtx& c, int ir, int it, int q) {
  const fd::LaneMetrics<W> g{&c.g};
  const fd::FieldLanes<W> ar{&c.state.ar}, at{&c.state.at}, ap{&c.state.ap};
  const fd::RingLanes<W> Vr{&c.pw.vr}, Vt{&c.pw.vt}, Vp{&c.pw.vp};
  const auto b =
      fd::curl_point(g, ar, at, ap, c.c_r, c.c_t, c.c_p, ir, it, q);
  b.r.store(c.pw.br.lane_at(ir, it, q));
  b.t.store(c.pw.bt.lane_at(ir, it, q));
  b.p.store(c.pw.bp.lane_at(ir, it, q));
  fd::div_point(g, Vr, Vt, Vp, c.c_r, c.c_t, c.c_p, ir, it, q)
      .store(c.pw.divv.lane_at(ir, it, q));
  const auto cv =
      fd::curl_point(g, Vr, Vt, Vp, c.c_r, c.c_t, c.c_p, ir, it, q);
  cv.r.store(c.pw.cvr.lane_at(ir, it, q));
  cv.t.store(c.pw.cvt.lane_at(ir, it, q));
  cv.p.store(c.pw.cvp.lane_at(ir, it, q));
}

/// All eight tendencies at lanes ir…ir+W−1 of output plane ip, in the
/// reference chain's accumulation order (combine body).
template <int W>
inline void combine_point(const SweepCtx& c, int ir, int it, int ip,
                          double st, double ct) {
  using P = simd::Pack<W>;
  const fd::LaneMetrics<W> g{&c.g};
  const EquationParams& eq = c.eq;
  const fd::FieldLanes<W> Srho{&c.state.rho}, Sfr{&c.state.fr},
      Sft{&c.state.ft}, Sfp{&c.state.fp}, Sp{&c.state.p};
  const fd::RingLanes<W> Vr{&c.pw.vr}, Vt{&c.pw.vt}, Vp{&c.pw.vp},
      Tp{&c.pw.T}, Br{&c.pw.br}, Bt{&c.pw.bt}, Bp{&c.pw.bp},
      Dv{&c.pw.divv}, Cr{&c.pw.cvr}, Ct{&c.pw.cvt}, Cp{&c.pw.cvp};
  const double c_r = c.c_r, c_t = c.c_t, c_p = c.c_p;

  // --- eq. (2): ∂ρ/∂t = −∇·f -----------------------------------
  (-fd::div_point(g, Sfr, Sft, Sfp, c_r, c_t, c_p, ir, it, ip))
      .store(&c.rhs.rho(ir, it, ip));

  // --- eq. (3): momentum ---------------------------------------
  const auto dvf = fd::div_vf_point(g, Vr, Vt, Vp, Sfr, Sft, Sfp, c_r, c_t,
                                    c_p, ir, it, ip);
  const auto gp = fd::grad_point(g, Sp, c_r, c_t, c_p, ir, it, ip);
  P fr_acc = -dvf.r - gp.r;
  P ft_acc = -dvf.t - gp.t;
  P fp_acc = -dvf.p - gp.p;
  const auto gd = fd::grad_point(g, Dv, c_r, c_t, c_p, ir, it, ip);
  fr_acc += c.c43 * gd.r;
  ft_acc += c.c43 * gd.t;
  fp_acc += c.c43 * gd.p;
  const auto cc = fd::curl_point(g, Cr, Ct, Cp, c_r, c_t, c_p, ir, it, ip);
  fr_acc -= eq.mu * cc.r;
  ft_acc -= eq.mu * cc.t;
  fp_acc -= eq.mu * cc.p;

  const double sp = c.g.sin_p(ip), cp = c.g.cos_p(ip);
  const double o_r =
      eq.omega.x * st * cp + eq.omega.y * st * sp + eq.omega.z * ct;
  const double o_t =
      eq.omega.x * ct * cp + eq.omega.y * ct * sp - eq.omega.z * st;
  const double o_p = -eq.omega.x * sp + eq.omega.y * cp;

  const P rho = Srho(ir, it, ip);
  const P vrc = Vr(ir, it, ip), vtc = Vt(ir, it, ip), vpc = Vp(ir, it, ip);
  const P brc = Br(ir, it, ip), btc = Bt(ir, it, ip), bpc = Bp(ir, it, ip);
  const auto j = fd::curl_point(g, Br, Bt, Bp, c_r, c_t, c_p, ir, it, ip);
  const P jrc = j.r, jtc = j.t, jpc = j.p;

  const P gr = -eq.g0 * g.inv_r(ir) * g.inv_r(ir);  // g = −g0/r² r̂

  fr_acc += (jtc * bpc - jpc * btc) + rho * gr +
            2.0 * rho * (vtc * o_p - vpc * o_t);
  ft_acc += (jpc * brc - jrc * bpc) + 2.0 * rho * (vpc * o_r - vrc * o_p);
  fp_acc += (jrc * btc - jtc * brc) + 2.0 * rho * (vrc * o_t - vtc * o_r);
  fr_acc.store(&c.rhs.fr(ir, it, ip));
  ft_acc.store(&c.rhs.ft(ir, it, ip));
  fp_acc.store(&c.rhs.fp(ir, it, ip));

  // --- eq. (4): pressure ---------------------------------------
  const P adv =
      fd::advect_point(g, Vr, Vt, Vp, Sp, c_r, c_t, c_p, ir, it, ip);
  const P lap =
      fd::laplacian_point(g, Tp, c.irr, c.itt, c.ipp, c_r, c_t, ir, it, ip);
  const P j2 = jrc * jrc + jtc * jtc + jpc * jpc;
  P p_acc = -adv - eq.gamma * Sp(ir, it, ip) * Dv(ir, it, ip) +
            c.gm1 * (eq.kappa * lap + eq.eta * j2);
  p_acc += c.cstr * fd::strain_point(g, Vr, Vt, Vp, c_r, c_t, c_p, ir, it, ip);
  p_acc.store(&c.rhs.p(ir, it, ip));

  // --- eq. (5): ∂A/∂t = −E = v×B − ηj --------------------------
  ((vtc * bpc - vpc * btc) - eq.eta * jrc).store(&c.rhs.ar(ir, it, ip));
  ((vpc * brc - vrc * bpc) - eq.eta * jtc).store(&c.rhs.at(ir, it, ip));
  ((vrc * btc - vtc * brc) - eq.eta * jpc).store(&c.rhs.ap(ir, it, ip));
}

/// Walks the radial line [r0, r1) in W-lane packs: ⌊L/W⌋ packs from
/// r0, then — when W does not divide L — one more full pack at r1 − W,
/// overlapping the previous one.  A line shorter than W is walked at
/// W/2, recursively, so the W=1 body runs only on a 1-point line.
/// Every pack lies inside [r0, r1), so its loads stay inside the
/// extents the scalar line reads and its stores land on points of this
/// line only.  `point` is called as point(integral_constant<W>, ir).
template <int W, class Point>
inline void walk_line(int r0, int r1, const Point& point) {
  if constexpr (W > 1) {
    if (r1 - r0 < W) {
      walk_line<W / 2>(r0, r1, point);
      return;
    }
  }
  const std::integral_constant<int, W> w{};
  int ir = r0;
  for (; ir + W <= r1; ir += W) point(w, ir);
  if (ir < r1) point(w, r1 - W);
}

/// Trips walk_line issues on a line of `len` points at pack width `w`.
constexpr std::uint64_t line_trips(std::uint64_t len, std::uint64_t w) {
  return w > 1 && len < w ? line_trips(len, w / 2) : (len + w - 1) / w;
}

/// The rolling sweep at pack width W: same plane schedule as
/// compute_rhs_fused, every radial line walked by walk_line<W>.
template <int W>
void sweep(const SweepCtx& c) {
  const auto fill_vt = [&](int q) {
    for (int it = c.e2.t0; it < c.e2.t1; ++it)
      walk_line<W>(c.e2.r0, c.e2.r1, [&](auto w, int ir) {
        vt_point<decltype(w)::value>(c, ir, it, q);
      });
  };
  const auto fill_derived = [&](int q) {
    for (int it = c.e1.t0; it < c.e1.t1; ++it)
      walk_line<W>(c.e1.r0, c.e1.r1, [&](auto w, int ir) {
        derived_point<decltype(w)::value>(c, ir, it, q);
      });
  };
  const auto combine = [&](int ip) {
    for (int it = c.box.t0; it < c.box.t1; ++it) {
      const double st = c.g.sin_t(it), ct = c.g.cos_t(it);
      walk_line<W>(c.box.r0, c.box.r1, [&](auto w, int ir) {
        combine_point<decltype(w)::value>(c, ir, it, ip, st, ct);
      });
    }
  };

  for (int q = c.box.p0 - 2; q < c.box.p0 + 2; ++q) fill_vt(q);
  for (int q = c.box.p0 - 1; q < c.box.p0 + 1; ++q) fill_derived(q);
  for (int ip = c.box.p0; ip < c.box.p1; ++ip) {
    fill_vt(ip + 2);
    fill_derived(ip + 1);
    combine(ip);
  }
}

/// Analytic lane accounting of one sweep over `box` at `width`,
/// mirroring walk_line: `iterations` counts the pack trips walked
/// (overlapped last packs and narrower packs on short lines included),
/// `vector_points` the distinct points written by a pack wider than one
/// lane — every point of a line of two or more.  The measured
/// counterpart of the ES model's vector columns (perf/proginf).
void record_lane_stats(int width, const IndexBox& box) {
  const IndexBox e2 = box.grown(2);
  const IndexBox e1 = box.grown(1);
  const std::uint64_t np = static_cast<std::uint64_t>(box.p1 - box.p0);
  simd::LaneStats stats;
  const auto add_lines = [&](std::uint64_t lines, std::uint64_t len) {
    stats.iterations +=
        lines * line_trips(len, static_cast<std::uint64_t>(width));
    if (width > 1 && len > 1) stats.vector_points += lines * len;
    stats.points += lines * len;
  };
  add_lines(static_cast<std::uint64_t>(e2.t1 - e2.t0) * (np + 4),
            static_cast<std::uint64_t>(e2.r1 - e2.r0));
  add_lines(static_cast<std::uint64_t>(e1.t1 - e1.t0) * (np + 2),
            static_cast<std::uint64_t>(e1.r1 - e1.r0));
  add_lines(static_cast<std::uint64_t>(box.t1 - box.t0) * np,
            static_cast<std::uint64_t>(box.r1 - box.r0));
  simd::lane_stats_add(stats);
}

}  // namespace

void compute_rhs_simd_width(int width, const SphericalGrid& g,
                            const EquationParams& eq, const Fields& state,
                            Fields& rhs, PencilWorkspace& pw,
                            const IndexBox& box) {
  YY_REQUIRE(width == 1 || width == 2 || width == 4 || width == 8);
  if (box.volume() == 0) return;
  if (width == 1) {
    // The scalar kernel is the plain-double fused sweep in its portable
    // TU, not sweep<1>: the Pack<1> instantiation is bitwise equal but
    // measured 1.6–1.8× slower.  It checks reach and charges flops.
    compute_rhs_fused(g, eq, state, rhs, pw, box);
    record_lane_stats(1, box);
    return;
  }
  const IndexBox e2 = box.grown(2);
  const IndexBox e1 = box.grown(1);
  // Same reach as the fused sweep; the pack loads of a radial line stay
  // inside the extents the scalar line touches (walk_line keeps every
  // pack inside its line).
  YY_REQUIRE(e2.r0 >= 0 && e2.r1 <= g.Nr());
  YY_REQUIRE(e2.t0 >= 0 && e2.t1 <= g.Nt());
  YY_REQUIRE(e2.p0 >= 0 && e2.p1 <= g.Np());
  pw.ensure(box);

  SweepCtx c{g,
             eq,
             state,
             rhs,
             pw,
             box,
             e2,
             e1,
             1.0 / (2.0 * g.dr()),
             1.0 / (2.0 * g.dt()),
             1.0 / (2.0 * g.dp()),
             1.0 / (g.dr() * g.dr()),
             1.0 / (g.dt() * g.dt()),
             1.0 / (g.dp() * g.dp()),
             4.0 / 3.0 * eq.mu,
             eq.gamma - 1.0,
             (eq.gamma - 1.0) * 2.0 * eq.mu};

  switch (width) {
    case 8:
      sweep<8>(c);
      break;
    case 4:
      sweep<4>(c);
      break;
    default:
      sweep<2>(c);
      break;
  }
  record_lane_stats(width, box);

  // Identical flop charge to the fused and reference paths: the lanes
  // change how the points are traversed, not how many ops each costs.
  const auto vol = [](const IndexBox& b) {
    return static_cast<std::uint64_t>(b.volume());
  };
  flops::add(vol(e2) * kFlopsVelTemp +
             vol(e1) * (2 * fd::kFlopsCurl + fd::kFlopsDiv) +
             vol(box) *
                 (fd::kFlopsCurl + fd::kFlopsDiv + fd::kFlopsDivVf +
                  2 * fd::kFlopsGrad + fd::kFlopsCurl + fd::kFlopsAdvect +
                  fd::kFlopsLaplacian + fd::kFlopsStrain +
                  kFlopsPointwiseCombine));
}

void compute_rhs_simd(const SphericalGrid& g, const EquationParams& eq,
                      const Fields& state, Fields& rhs, PencilWorkspace& pw,
                      const IndexBox& box) {
  compute_rhs_simd_width(simd::active_width(), g, eq, state, rhs, pw, box);
}

void compute_rhs_parallel_simd_width(int width, const SphericalGrid& g,
                                     const EquationParams& eq,
                                     const Fields& state, Fields& rhs,
                                     std::vector<PencilWorkspace>& pw_pool,
                                     const IndexBox& box, int nthreads) {
  if (box.volume() == 0) return;
  const int np = box.p1 - box.p0;
  const int n = std::clamp(nthreads, 1, np);
  while (pw_pool.size() < static_cast<std::size_t>(n)) pw_pool.emplace_back();
  if (n == 1) {
    compute_rhs_simd_width(width, g, eq, state, rhs, pw_pool[0], box);
    return;
  }
  common::parallel_regions(n, [&](int k) {
    compute_rhs_simd_width(width, g, eq, state, rhs,
                           pw_pool[static_cast<std::size_t>(k)],
                           phi_slab(box, n, k));
  });
}

void compute_rhs_parallel_simd(const SphericalGrid& g,
                               const EquationParams& eq, const Fields& state,
                               Fields& rhs,
                               std::vector<PencilWorkspace>& pw_pool,
                               const IndexBox& box, int nthreads) {
  compute_rhs_parallel_simd_width(simd::active_width(), g, eq, state, rhs,
                                  pw_pool, box, nthreads);
}

}  // namespace yy::mhd
