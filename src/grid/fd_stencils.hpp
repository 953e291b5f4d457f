/// \file fd_stencils.hpp
/// Per-point bodies of the 2nd-order central FD operators, templated on
/// the field accessor (anything callable as a(ir, it, ip) → value:
/// Field3, FieldView, a SIMD lane view…) and on the metric provider
/// (SphericalGrid, or the lane adapter of fd_stencils_simd.hpp whose
/// inv_r() returns a pack).
///
/// These are the *single source of truth* for the stencil arithmetic:
/// the whole-array operators in fd_ops.cpp and the pencil sweep in
/// mhd/rhs_simd.cpp (every lane width, 1 included) both call them, with
/// the metric-free difference coefficients (c_r = 1/(2Δr) etc.)
/// computed by the caller from the same expressions.  The build
/// carries -ffp-contract=off globally (top-level CMakeLists), so one
/// expression tree instantiated for several accessor types — scalar or
/// elementwise lane packs — yields bitwise-identical IEEE doubles: the
/// property the simd-vs-reference equivalence tests pin exactly.  The
/// value type is deduced (double for scalar accessors, simd::Pack<W>
/// for lane accessors); every expression below is either value⊙value
/// or scalar-broadcast⊙value, both of which are elementwise and
/// preserve the per-lane tree.
///
/// None of these helpers charge flops; the sweep that calls them
/// charges the documented per-operator cost over its box.
#pragma once

#include "grid/spherical_grid.hpp"

namespace yy::fd {

/// Spherical (r, θ, φ) component triple returned by the vector
/// stencils, over the deduced value type (double or a lane pack).
template <typename T>
struct TripleT {
  T r{}, t{}, p{};
};

/// The scalar triple every pre-SIMD caller names.
using Triple = TripleT<double>;

/// Spherical gradient of a scalar at one node.
template <typename G, typename S>
inline auto grad_point(const G& g, const S& s, double c_r, double c_t,
                       double c_p, int ir, int it, int ip) {
  const auto ri = g.inv_r(ir);
  TripleT<decltype(ri * s(ir, it, ip))> out;
  out.r = c_r * (s(ir + 1, it, ip) - s(ir - 1, it, ip));
  out.t = ri * c_t * (s(ir, it + 1, ip) - s(ir, it - 1, ip));
  out.p =
      ri * g.inv_sin_t(it) * c_p * (s(ir, it, ip + 1) - s(ir, it, ip - 1));
  return out;
}

/// Spherical divergence of a vector field at one node.
template <typename G, typename Vr, typename Vt, typename Vp>
inline auto div_point(const G& g, const Vr& vr, const Vt& vt, const Vp& vp,
                      double c_r, double c_t, double c_p, int ir, int it,
                      int ip) {
  const auto ri = g.inv_r(ir);
  return c_r * (vr(ir + 1, it, ip) - vr(ir - 1, it, ip)) +
         2.0 * ri * vr(ir, it, ip) +
         ri * (c_t * (vt(ir, it + 1, ip) - vt(ir, it - 1, ip)) +
               g.cot_t(it) * vt(ir, it, ip)) +
         ri * g.inv_sin_t(it) * c_p * (vp(ir, it, ip + 1) - vp(ir, it, ip - 1));
}

/// Spherical curl of a vector field at one node.
template <typename G, typename Vr, typename Vt, typename Vp>
inline auto curl_point(const G& g, const Vr& vr, const Vt& vt, const Vp& vp,
                       double d_r, double d_t, double d_p, int ir, int it,
                       int ip) {
  const auto ri = g.inv_r(ir);
  const auto ist = g.inv_sin_t(it);
  TripleT<decltype(ri * vr(ir, it, ip))> out;
  out.r = ri * (d_t * (vp(ir, it + 1, ip) - vp(ir, it - 1, ip)) +
                g.cot_t(it) * vp(ir, it, ip)) -
          ri * ist * d_p * (vt(ir, it, ip + 1) - vt(ir, it, ip - 1));
  out.t = ri * ist * d_p * (vr(ir, it, ip + 1) - vr(ir, it, ip - 1)) -
          ri * vp(ir, it, ip) -
          d_r * (vp(ir + 1, it, ip) - vp(ir - 1, it, ip));
  out.p = ri * vt(ir, it, ip) +
          d_r * (vt(ir + 1, it, ip) - vt(ir - 1, it, ip)) -
          ri * d_t * (vr(ir, it + 1, ip) - vr(ir, it - 1, ip));
  return out;
}

/// Scalar Laplacian ∇²s at one node.
template <typename G, typename S>
inline auto laplacian_point(const G& g, const S& s, double irr, double itt,
                            double ipp, double c_r, double c_t, int ir, int it,
                            int ip) {
  const auto ri = g.inv_r(ir);
  const auto ist = g.inv_sin_t(it);
  const auto sc = s(ir, it, ip);
  return irr * (s(ir + 1, it, ip) - 2.0 * sc + s(ir - 1, it, ip)) +
         2.0 * ri * c_r * (s(ir + 1, it, ip) - s(ir - 1, it, ip)) +
         ri * ri *
             (itt * (s(ir, it + 1, ip) - 2.0 * sc + s(ir, it - 1, ip)) +
              g.cot_t(it) * c_t * (s(ir, it + 1, ip) - s(ir, it - 1, ip)) +
              ist * ist * ipp *
                  (s(ir, it, ip + 1) - 2.0 * sc + s(ir, it, ip - 1)));
}

/// Scalar advection v·∇s at one node.
template <typename G, typename Vr, typename Vt, typename Vp, typename S>
inline auto advect_point(const G& g, const Vr& vr, const Vt& vt, const Vp& vp,
                         const S& s, double c_r, double c_t, double c_p,
                         int ir, int it, int ip) {
  const auto ri = g.inv_r(ir);
  return vr(ir, it, ip) * c_r * (s(ir + 1, it, ip) - s(ir - 1, it, ip)) +
         vt(ir, it, ip) * ri * c_t * (s(ir, it + 1, ip) - s(ir, it - 1, ip)) +
         vp(ir, it, ip) * ri * g.inv_sin_t(it) * c_p *
             (s(ir, it, ip + 1) - s(ir, it, ip - 1));
}

/// Momentum-flux divergence [∇·(v⊗f)] with the spherical curvature
/// terms at one node (see fd_ops.hpp for the component formulas).
template <typename G, typename Vr, typename Vt, typename Vp, typename Fr,
          typename Ft, typename Fp>
inline auto div_vf_point(const G& g, const Vr& vr, const Vt& vt, const Vp& vp,
                         const Fr& fr, const Ft& ft, const Fp& fp, double c_r,
                         double c_t, double c_p, int ir, int it, int ip) {
  const auto ri = g.inv_r(ir);
  const auto ist = g.inv_sin_t(it);
  const auto cot = g.cot_t(it);
  const auto vrc = vr(ir, it, ip);
  const auto vtc = vt(ir, it, ip);
  const auto vpc = vp(ir, it, ip);

  auto div_v_scaled = [&](const auto& F) {
    // Spherical divergence of the vector (v_r F, v_θ F, v_φ F),
    // product-differenced to stay 2nd-order.
    return c_r * (vr(ir + 1, it, ip) * F(ir + 1, it, ip) -
                  vr(ir - 1, it, ip) * F(ir - 1, it, ip)) +
           2.0 * ri * vrc * F(ir, it, ip) +
           ri * (c_t * (vt(ir, it + 1, ip) * F(ir, it + 1, ip) -
                        vt(ir, it - 1, ip) * F(ir, it - 1, ip)) +
                 cot * vtc * F(ir, it, ip)) +
           ri * ist * c_p *
               (vp(ir, it, ip + 1) * F(ir, it, ip + 1) -
                vp(ir, it, ip - 1) * F(ir, it, ip - 1));
  };

  const auto frc = fr(ir, it, ip);
  const auto ftc = ft(ir, it, ip);
  const auto fpc = fp(ir, it, ip);
  TripleT<decltype(ri * frc)> out;
  out.r = div_v_scaled(fr) - ri * (vtc * ftc + vpc * fpc);
  out.t = div_v_scaled(ft) + ri * (vtc * frc - cot * vpc * fpc);
  out.p = div_v_scaled(fp) + ri * (vpc * frc + cot * vpc * ftc);
  return out;
}

/// Strain-rate invariant e_ij e_ij − (1/3)(∇·v)² at one node.
template <typename G, typename Vr, typename Vt, typename Vp>
inline auto strain_point(const G& g, const Vr& vr, const Vt& vt, const Vp& vp,
                         double c_r, double c_t, double c_p, int ir, int it,
                         int ip) {
  const auto ri = g.inv_r(ir);
  const auto ist = g.inv_sin_t(it);
  const auto cot = g.cot_t(it);

  const auto vrc = vr(ir, it, ip);
  const auto vtc = vt(ir, it, ip);
  const auto vpc = vp(ir, it, ip);

  const auto dvr_r = c_r * (vr(ir + 1, it, ip) - vr(ir - 1, it, ip));
  const auto dvt_r = c_r * (vt(ir + 1, it, ip) - vt(ir - 1, it, ip));
  const auto dvp_r = c_r * (vp(ir + 1, it, ip) - vp(ir - 1, it, ip));
  const auto dvr_t = c_t * (vr(ir, it + 1, ip) - vr(ir, it - 1, ip));
  const auto dvt_t = c_t * (vt(ir, it + 1, ip) - vt(ir, it - 1, ip));
  const auto dvp_t = c_t * (vp(ir, it + 1, ip) - vp(ir, it - 1, ip));
  const auto dvr_p = c_p * (vr(ir, it, ip + 1) - vr(ir, it, ip - 1));
  const auto dvt_p = c_p * (vt(ir, it, ip + 1) - vt(ir, it, ip - 1));
  const auto dvp_p = c_p * (vp(ir, it, ip + 1) - vp(ir, it, ip - 1));

  const auto err = dvr_r;
  const auto ett = ri * dvt_t + ri * vrc;
  const auto epp = ri * ist * dvp_p + ri * vrc + ri * cot * vtc;
  const auto ert = 0.5 * (ri * dvr_t + dvt_r - ri * vtc);
  const auto erp = 0.5 * (ri * ist * dvr_p + dvp_r - ri * vpc);
  const auto etp = 0.5 * (ri * dvp_t - ri * cot * vpc + ri * ist * dvt_p);

  const auto divv = err + ett + epp;
  return err * err + ett * ett + epp * epp +
         2.0 * (ert * ert + erp * erp + etp * etp) - divv * divv / 3.0;
}

}  // namespace yy::fd
