/// \file rhs_simd.cpp
/// The SIMD RHS backend: one rolling-pencil sweep over φ evaluating all
/// eight tendencies per point, its radial inner loops run as W-lane
/// packs (common/simd.hpp) for W ∈ {1, 2, 4, 8} — width 1 is the same
/// sweep at Pack<1>.  Every radial line runs in full-width packs: when
/// W does not divide the line, the last pack is shifted back to end at
/// the line's end and recomputes a few points the previous pack wrote.
///
/// Sweep structure — for each output plane ip the stencils need
///  * v and T two φ layers out (second-order composites differentiate
///    first-derivative fields, which themselves read ±1): depth-5 rings
///    over (r,θ) ∈ box.grown(2);
///  * the once-differentiated fields B, ∇·v, ∇×v one layer out:
///    depth-3 rings over box.grown(1);
///  * j = ∇×B only at the output point itself — evaluated on the fly
///    from the resident B ring, never stored.
/// So the steady-state loop is: fill v/T plane ip+2, fill derived plane
/// ip+1, combine plane ip — each plane computed exactly once, exactly as
/// many point-evaluations as the reference path performs over the same
/// boxes (the flop charge below is the same sum, term for term).
///
/// Bitwise contract (DESIGN.md §11, §14): every per-point body below is
/// the same grid/fd_stencils.hpp template the reference chain's
/// operators instantiate — the accessor types change (PlaneLanes /
/// LaneMetrics instead of Field3 / SphericalGrid), the source
/// expressions do not.  Pack arithmetic is strictly elementwise and
/// the build pins -ffp-contract=off, so lane i of any pack equals the
/// scalar evaluation at ir+i bit for bit — which is also why a point
/// computed twice by overlapping packs is stored with the same bytes
/// both times.  The equivalence suite
/// (tests/mhd/test_rhs_simd.cpp) pins this for every width, split,
/// thread count, and line remainder.
///
/// Code generation: each φ plane's fields are resolved to plane bases
/// once (fd::Planes; one PlaneRing modulo per ring per plane), and the
/// flattened per-point bodies inline every stencil, accessor and Pack
/// operator, so the packs stay in vector registers from load to store.
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
/// one argument.  The difference coefficients are the same expressions
/// the fd::* operators compute, so the shared stencils see identical
/// values.
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

/// The planes one fill_vt plane reads and writes, resolved once.
struct VtPlanes {
  fd::Planes<0> rho, fr, ft, fp, p;
  fd::Planes<0, double> vr, vt, vp, T;
};

/// The planes one fill_derived plane reads and writes, resolved once.
struct DerivedPlanes {
  fd::Planes<1> ar, at, ap, vr, vt, vp;
  fd::Planes<0, double> br, bt, bp, divv, cvr, cvt, cvp;
};

/// The planes one combine plane reads and writes (o_* are the RHS
/// outputs), resolved once.
struct CombinePlanes {
  fd::Planes<0> rho;
  fd::Planes<1> fr, ft, fp, p, vr, vt, vp, T, br, bt, bp, divv, cvr, cvt,
      cvp;
  fd::Planes<0, double> o_rho, o_fr, o_ft, o_fp, o_p, o_ar, o_at, o_ap;
};

// The per-point bodies are flattened: every stencil, accessor and Pack
// operator inlines into them, so no pack crosses a call.  Lane
// accessors take the stencils' φ argument as an offset from the
// resolved plane, so the bodies pass 0 where the reference operators
// pass ip.

/// v = f/ρ, T = p/ρ at lanes ir…ir+W−1 of the plane (fill_vt body).
template <int W>
[[gnu::flatten]] void vt_point(const VtPlanes& pl, int ir, int it) {
  using P = simd::Pack<W>;
  const fd::PlaneLanes<W, 0> rho{pl.rho}, fr{pl.fr}, ft{pl.ft}, fp{pl.fp},
      p{pl.p};
  const P inv_rho = 1.0 / rho(ir, it, 0);
  (fr(ir, it, 0) * inv_rho).store(pl.vr.at(ir, it, 0));
  (ft(ir, it, 0) * inv_rho).store(pl.vt.at(ir, it, 0));
  (fp(ir, it, 0) * inv_rho).store(pl.vp.at(ir, it, 0));
  (p(ir, it, 0) * inv_rho).store(pl.T.at(ir, it, 0));
}

/// B = ∇×A, ∇·v, ∇×v at lanes ir…ir+W−1 of the plane (fill_derived
/// body).
template <int W>
[[gnu::flatten]] void derived_point(const SweepCtx& c, const DerivedPlanes& pl,
                                    int ir, int it) {
  const fd::LaneMetrics<W> g{&c.g};
  const fd::PlaneLanes<W> ar{pl.ar}, at{pl.at}, ap{pl.ap}, Vr{pl.vr},
      Vt{pl.vt}, Vp{pl.vp};
  const double c_r = c.c_r, c_t = c.c_t, c_p = c.c_p;
  const auto b = fd::curl_point(g, ar, at, ap, c_r, c_t, c_p, ir, it, 0);
  b.r.store(pl.br.at(ir, it, 0));
  b.t.store(pl.bt.at(ir, it, 0));
  b.p.store(pl.bp.at(ir, it, 0));
  fd::div_point(g, Vr, Vt, Vp, c_r, c_t, c_p, ir, it, 0)
      .store(pl.divv.at(ir, it, 0));
  const auto cv = fd::curl_point(g, Vr, Vt, Vp, c_r, c_t, c_p, ir, it, 0);
  cv.r.store(pl.cvr.at(ir, it, 0));
  cv.t.store(pl.cvt.at(ir, it, 0));
  cv.p.store(pl.cvp.at(ir, it, 0));
}

/// All eight tendencies at lanes ir…ir+W−1 of output plane ip, in the
/// reference chain's accumulation order (combine body).
template <int W>
[[gnu::flatten]] void combine_point(const SweepCtx& c, const CombinePlanes& pl,
                                    int ir, int it, int ip, double st,
                                    double ct) {
  using P = simd::Pack<W>;
  const fd::LaneMetrics<W> g{&c.g};
  const EquationParams& eq = c.eq;
  const fd::PlaneLanes<W, 0> Srho{pl.rho};
  const fd::PlaneLanes<W> Sfr{pl.fr}, Sft{pl.ft}, Sfp{pl.fp}, Sp{pl.p},
      Vr{pl.vr}, Vt{pl.vt}, Vp{pl.vp}, Tp{pl.T}, Br{pl.br}, Bt{pl.bt},
      Bp{pl.bp}, Dv{pl.divv}, Cr{pl.cvr}, Ct{pl.cvt}, Cp{pl.cvp};
  const double c_r = c.c_r, c_t = c.c_t, c_p = c.c_p;

  // --- eq. (2): ∂ρ/∂t = −∇·f -----------------------------------
  (-fd::div_point(g, Sfr, Sft, Sfp, c_r, c_t, c_p, ir, it, 0))
      .store(pl.o_rho.at(ir, it, 0));

  // --- eq. (3): momentum ---------------------------------------
  const auto dvf =
      fd::div_vf_point(g, Vr, Vt, Vp, Sfr, Sft, Sfp, c_r, c_t, c_p, ir, it, 0);
  const auto gp = fd::grad_point(g, Sp, c_r, c_t, c_p, ir, it, 0);
  P fr_acc = -dvf.r - gp.r;
  P ft_acc = -dvf.t - gp.t;
  P fp_acc = -dvf.p - gp.p;
  const auto gd = fd::grad_point(g, Dv, c_r, c_t, c_p, ir, it, 0);
  fr_acc += c.c43 * gd.r;
  ft_acc += c.c43 * gd.t;
  fp_acc += c.c43 * gd.p;
  const auto cc = fd::curl_point(g, Cr, Ct, Cp, c_r, c_t, c_p, ir, it, 0);
  fr_acc -= eq.mu * cc.r;
  ft_acc -= eq.mu * cc.t;
  fp_acc -= eq.mu * cc.p;

  const double sp = c.g.sin_p(ip), cp = c.g.cos_p(ip);
  const double o_r =
      eq.omega.x * st * cp + eq.omega.y * st * sp + eq.omega.z * ct;
  const double o_t =
      eq.omega.x * ct * cp + eq.omega.y * ct * sp - eq.omega.z * st;
  const double o_p = -eq.omega.x * sp + eq.omega.y * cp;

  const P rho = Srho(ir, it, 0);
  const P vrc = Vr(ir, it, 0), vtc = Vt(ir, it, 0), vpc = Vp(ir, it, 0);
  const P brc = Br(ir, it, 0), btc = Bt(ir, it, 0), bpc = Bp(ir, it, 0);
  const auto j = fd::curl_point(g, Br, Bt, Bp, c_r, c_t, c_p, ir, it, 0);
  const P jrc = j.r, jtc = j.t, jpc = j.p;

  const P gr = -eq.g0 * g.inv_r(ir) * g.inv_r(ir);  // g = −g0/r² r̂

  fr_acc += (jtc * bpc - jpc * btc) + rho * gr +
            2.0 * rho * (vtc * o_p - vpc * o_t);
  ft_acc += (jpc * brc - jrc * bpc) + 2.0 * rho * (vpc * o_r - vrc * o_p);
  fp_acc += (jrc * btc - jtc * brc) + 2.0 * rho * (vrc * o_t - vtc * o_r);
  fr_acc.store(pl.o_fr.at(ir, it, 0));
  ft_acc.store(pl.o_ft.at(ir, it, 0));
  fp_acc.store(pl.o_fp.at(ir, it, 0));

  // --- eq. (4): pressure ---------------------------------------
  const P adv = fd::advect_point(g, Vr, Vt, Vp, Sp, c_r, c_t, c_p, ir, it, 0);
  const P lap =
      fd::laplacian_point(g, Tp, c.irr, c.itt, c.ipp, c_r, c_t, ir, it, 0);
  const P j2 = jrc * jrc + jtc * jtc + jpc * jpc;
  P p_acc = -adv - eq.gamma * Sp(ir, it, 0) * Dv(ir, it, 0) +
            c.gm1 * (eq.kappa * lap + eq.eta * j2);
  p_acc += c.cstr * fd::strain_point(g, Vr, Vt, Vp, c_r, c_t, c_p, ir, it, 0);
  p_acc.store(pl.o_p.at(ir, it, 0));

  // --- eq. (5): ∂A/∂t = −E = v×B − ηj --------------------------
  ((vtc * bpc - vpc * btc) - eq.eta * jrc).store(pl.o_ar.at(ir, it, 0));
  ((vpc * brc - vrc * bpc) - eq.eta * jtc).store(pl.o_at.at(ir, it, 0));
  ((vrc * btc - vtc * brc) - eq.eta * jpc).store(pl.o_ap.at(ir, it, 0));
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

/// The rolling sweep at pack width W (plane schedule in the file
/// comment), every radial line walked by walk_line<W>.  Each plane's
/// fields are resolved once, outside its θ and r loops.
template <int W>
void sweep(const SweepCtx& c) {
  // Read-only views pick the const plane bases; pw and o are stored to.
  const Fields& s = c.state;
  PencilWorkspace& pw = c.pw;
  const PencilWorkspace& r = pw;
  Fields& o = c.rhs;
  const auto fill_vt = [&](int q) {
    const VtPlanes pl{.rho = fd::field_planes<0>(s.rho, q),
                      .fr = fd::field_planes<0>(s.fr, q),
                      .ft = fd::field_planes<0>(s.ft, q),
                      .fp = fd::field_planes<0>(s.fp, q),
                      .p = fd::field_planes<0>(s.p, q),
                      .vr = fd::ring_planes<0>(pw.vr, q),
                      .vt = fd::ring_planes<0>(pw.vt, q),
                      .vp = fd::ring_planes<0>(pw.vp, q),
                      .T = fd::ring_planes<0>(pw.T, q)};
    for (int it = c.e2.t0; it < c.e2.t1; ++it)
      walk_line<W>(c.e2.r0, c.e2.r1, [&](auto w, int ir) {
        vt_point<decltype(w)::value>(pl, ir, it);
      });
  };
  const auto fill_derived = [&](int q) {
    const DerivedPlanes pl{.ar = fd::field_planes<1>(s.ar, q),
                           .at = fd::field_planes<1>(s.at, q),
                           .ap = fd::field_planes<1>(s.ap, q),
                           .vr = fd::ring_planes<1>(r.vr, q),
                           .vt = fd::ring_planes<1>(r.vt, q),
                           .vp = fd::ring_planes<1>(r.vp, q),
                           .br = fd::ring_planes<0>(pw.br, q),
                           .bt = fd::ring_planes<0>(pw.bt, q),
                           .bp = fd::ring_planes<0>(pw.bp, q),
                           .divv = fd::ring_planes<0>(pw.divv, q),
                           .cvr = fd::ring_planes<0>(pw.cvr, q),
                           .cvt = fd::ring_planes<0>(pw.cvt, q),
                           .cvp = fd::ring_planes<0>(pw.cvp, q)};
    for (int it = c.e1.t0; it < c.e1.t1; ++it)
      walk_line<W>(c.e1.r0, c.e1.r1, [&](auto w, int ir) {
        derived_point<decltype(w)::value>(c, pl, ir, it);
      });
  };
  const auto combine = [&](int ip) {
    const CombinePlanes pl{.rho = fd::field_planes<0>(s.rho, ip),
                           .fr = fd::field_planes<1>(s.fr, ip),
                           .ft = fd::field_planes<1>(s.ft, ip),
                           .fp = fd::field_planes<1>(s.fp, ip),
                           .p = fd::field_planes<1>(s.p, ip),
                           .vr = fd::ring_planes<1>(r.vr, ip),
                           .vt = fd::ring_planes<1>(r.vt, ip),
                           .vp = fd::ring_planes<1>(r.vp, ip),
                           .T = fd::ring_planes<1>(r.T, ip),
                           .br = fd::ring_planes<1>(r.br, ip),
                           .bt = fd::ring_planes<1>(r.bt, ip),
                           .bp = fd::ring_planes<1>(r.bp, ip),
                           .divv = fd::ring_planes<1>(r.divv, ip),
                           .cvr = fd::ring_planes<1>(r.cvr, ip),
                           .cvt = fd::ring_planes<1>(r.cvt, ip),
                           .cvp = fd::ring_planes<1>(r.cvp, ip),
                           .o_rho = fd::field_planes<0>(o.rho, ip),
                           .o_fr = fd::field_planes<0>(o.fr, ip),
                           .o_ft = fd::field_planes<0>(o.ft, ip),
                           .o_fp = fd::field_planes<0>(o.fp, ip),
                           .o_p = fd::field_planes<0>(o.p, ip),
                           .o_ar = fd::field_planes<0>(o.ar, ip),
                           .o_at = fd::field_planes<0>(o.at, ip),
                           .o_ap = fd::field_planes<0>(o.ap, ip)};
    for (int it = c.box.t0; it < c.box.t1; ++it) {
      const double st = c.g.sin_t(it), ct = c.g.cos_t(it);
      walk_line<W>(c.box.r0, c.box.r1, [&](auto w, int ir) {
        combine_point<decltype(w)::value>(c, pl, ir, it, ip, st, ct);
      });
    }
  };

  // Prime the rings, then roll: each iteration establishes the planes
  // plane ip's stencils reach before combining it.
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

void PencilWorkspace::ensure(const IndexBox& box) {
  const IndexBox e2 = box.grown(2);
  const IndexBox e1 = box.grown(1);
  for (common::PlaneRing* r : {&vr, &vt, &vp, &T})
    r->ensure(5, e2.r0, e2.r1, e2.t0, e2.t1);
  for (common::PlaneRing* r : {&br, &bt, &bp, &divv, &cvr, &cvt, &cvp})
    r->ensure(3, e1.r0, e1.r1, e1.t0, e1.t1);
}

std::size_t PencilWorkspace::allocated_doubles() const {
  std::size_t n = 0;
  for (const common::PlaneRing* r :
       {&vr, &vt, &vp, &T, &br, &bt, &bp, &divv, &cvr, &cvt, &cvp})
    n += r->allocated_doubles();
  return n;
}

void compute_rhs_simd_width(int width, const SphericalGrid& g,
                            const EquationParams& eq, const Fields& state,
                            Fields& rhs, PencilWorkspace& pw,
                            const IndexBox& box) {
  YY_REQUIRE(width == 1 || width == 2 || width == 4 || width == 8);
  if (box.volume() == 0) return;
  const IndexBox e2 = box.grown(2);
  const IndexBox e1 = box.grown(1);
  // Same reach as the reference chain: the sweep touches box.grown(2)
  // (metric tables and state ghosts must exist there), and walk_line
  // keeps every pack's loads inside the extents its scalar line reads.
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
    case 2:
      sweep<2>(c);
      break;
    default:
      sweep<1>(c);
      break;
  }
  record_lane_stats(width, box);

  // Identical charge to the reference chain, term for term: v/T over
  // box.grown(2); B, ∇·v, ∇×v over box.grown(1); every remaining
  // operator (including the on-the-fly j = ∇×B) over box.  The lanes
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
