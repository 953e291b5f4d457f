/// \file fd_ops.hpp
/// Second-order central finite-difference operators in spherical
/// coordinates (r, θ, φ) — the discretization of paper §III.
///
/// Every operator evaluates over an IndexBox of patch indices and reads
/// one layer of neighbours around it, so the caller guarantees that
/// `box.grown(1)` holds valid data (ghost layers filled by physical
/// boundary conditions, halo exchange, or overset interpolation).
/// All operators charge their documented flop cost to yy::flops so the
/// perf model can measure the true flops-per-grid-point of each kernel.
///
/// Fields are passed as views (FieldView / ConstFieldView, implicitly
/// constructible from Field3): the view's cover box must contain the
/// indices the operator touches, which lets rebased scratch blocks
/// (common/pencil.hpp ScratchField) flow through unchanged.  The
/// per-point arithmetic lives in grid/fd_stencils.hpp, shared with the
/// pencil RHS sweep (mhd/rhs_simd.cpp).
///
/// Component convention throughout: (r, θ, φ) physical components on
/// the local panel's spherical coordinates.
#pragma once

#include "common/array3d.hpp"
#include "grid/spherical_grid.hpp"

namespace yy::fd {

/// Plain coordinate derivatives ∂/∂r, ∂/∂θ, ∂/∂φ (no metric factors).
void deriv_r(const SphericalGrid& g, ConstFieldView a, FieldView out,
             const IndexBox& box);
void deriv_t(const SphericalGrid& g, ConstFieldView a, FieldView out,
             const IndexBox& box);
void deriv_p(const SphericalGrid& g, ConstFieldView a, FieldView out,
             const IndexBox& box);

/// Spherical gradient of a scalar: (∂r s, (1/r)∂θ s, (1/(r sinθ))∂φ s).
void grad(const SphericalGrid& g, ConstFieldView s, FieldView gr, FieldView gt,
          FieldView gp, const IndexBox& box);

/// Spherical divergence of a vector field.
void div(const SphericalGrid& g, ConstFieldView vr, ConstFieldView vt,
         ConstFieldView vp, FieldView out, const IndexBox& box);

/// Spherical curl of a vector field.
void curl(const SphericalGrid& g, ConstFieldView vr, ConstFieldView vt,
          ConstFieldView vp, FieldView cr, FieldView ct, FieldView cp,
          const IndexBox& box);

/// Scalar Laplacian ∇²s in spherical coordinates.
void laplacian(const SphericalGrid& g, ConstFieldView s, FieldView out,
               const IndexBox& box);

/// Scalar advection v·∇s.
void advect(const SphericalGrid& g, ConstFieldView vr, ConstFieldView vt,
            ConstFieldView vp, ConstFieldView s, FieldView out,
            const IndexBox& box);

/// Momentum-flux divergence [∇·(v⊗f)] with the spherical curvature
/// terms, writing the three components (the −∇·(vf) term of eq. 3 is
/// the negative of this).
void div_vf(const SphericalGrid& g, ConstFieldView vr, ConstFieldView vt,
            ConstFieldView vp, ConstFieldView fr, ConstFieldView ft,
            ConstFieldView fp, FieldView outr, FieldView outt, FieldView outp,
            const IndexBox& box);

/// Strain-rate invariant e_ij e_ij − (1/3)(∇·v)² of eq. (6); the viscous
/// heating is Φ = 2µ × this.
void strain_invariant(const SphericalGrid& g, ConstFieldView vr,
                      ConstFieldView vt, ConstFieldView vp, FieldView out,
                      const IndexBox& box);

// Documented per-point flop costs (used by tests that pin the counter
// and by the perf model's analytic cross-checks).
inline constexpr int kFlopsDeriv = 2;        // sub + mul
inline constexpr int kFlopsGrad = 10;
inline constexpr int kFlopsDiv = 14;
inline constexpr int kFlopsCurl = 24;
inline constexpr int kFlopsLaplacian = 21;
inline constexpr int kFlopsAdvect = 16;
inline constexpr int kFlopsDivVf = 3 * 26 + 10;
inline constexpr int kFlopsStrain = 54;

}  // namespace yy::fd
