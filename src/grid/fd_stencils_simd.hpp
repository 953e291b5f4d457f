/// \file fd_stencils_simd.hpp
/// Lane adapters that let the shared per-point stencils of
/// fd_stencils.hpp run on W radial points at once.
///
/// The stencils are templated on a metric provider and on field
/// accessors; instantiating them with the types below turns every
/// `a(ir, it, ip)` into a load of W consecutive doubles (the radial
/// index is unit-stride in Field3 and PlaneRing alike) and every
/// arithmetic node into an elementwise simd::Pack op.  The expression
/// trees — and therefore, with -ffp-contract=off, the per-lane IEEE
/// results — are literally the ones the scalar sweep evaluates: same
/// header, same source lines, wider loop.
///
/// Addressing: a sweep resolves the φ planes a stencil can reach once
/// per output plane (Planes, from ring_planes / field_planes: one
/// PlaneRing modulo or Field3 plane offset per plane), outside its θ
/// and r loops.  The lane accessors then take the stencils' φ argument
/// as an offset from that plane (0 = the plane itself, ±1 = its
/// neighbours), so a load is a base pointer plus ir + row·it, with no
/// division or 3-D index in the inner loop.
///
/// Metric factors: 1/r is the only lane-varying one (packs load W
/// table entries); every θ/φ factor is constant across a radial lane
/// and broadcasts, exactly as the scalar code hoists it.
///
/// Callers must keep ir+W−1 inside the extent a scalar sweep of the
/// same loop would touch; the pack loads then stay inside the same
/// allocations the scalar stencil reads.
#pragma once

#include <cstddef>
#include <type_traits>

#include "common/simd.hpp"
#include "grid/spherical_grid.hpp"

namespace yy::fd {

/// Metric provider for W-lane stencil instantiation: inv_r returns a
/// pack of W consecutive 1/r table entries; θ metrics stay scalar and
/// broadcast inside the shared expression trees.
template <int W>
struct LaneMetrics {
  const SphericalGrid* g = nullptr;
  simd::Pack<W> inv_r(int ir) const {
    return simd::Pack<W>::load(g->inv_r_data() + ir);
  }
  double cot_t(int it) const { return g->cot_t(it); }
  double inv_sin_t(int it) const { return g->inv_sin_t(it); }
};

/// The φ planes ip−R … ip+R of one field, resolved once: slot R + d
/// holds plane ip+d, and (ir, it) of a slot sits at base[slot] +
/// origin + ir + row·it.  T is `double` for the planes a sweep stores.
template <int R, class T = const double>
struct Planes {
  T* base[2 * R + 1] = {};
  std::ptrdiff_t row = 0, origin = 0;

  /// Address of (ir, it) on plane ip+d (|d| ≤ R).
  T* at(int ir, int it, int d) const {
    return base[R + d] + (origin + ir + row * it);
  }
};

/// Planes ip−R … ip+R of a pencil ring (one modulo per plane).
template <int R, class Ring>
auto ring_planes(Ring& ring, int ip) {
  Planes<R, std::remove_pointer_t<decltype(ring.plane(ip))>> p;
  for (int d = -R; d <= R; ++d) p.base[R + d] = ring.plane(ip + d);
  p.row = ring.row();
  p.origin = ring.origin();
  return p;
}

/// Planes ip−R … ip+R of a whole-patch field.
template <int R, class Field>
auto field_planes(Field& f, int ip) {
  Planes<R, std::remove_pointer_t<decltype(f.data())>> p;
  for (int d = -R; d <= R; ++d)
    p.base[R + d] = f.data() + f.index(0, 0, ip + d);
  p.row = f.nr();
  p.origin = 0;
  return p;
}

/// W-lane accessor over resolved planes: the stencils' φ argument is
/// the offset d from the resolved plane (see file comment).
template <int W, int R = 1>
struct PlaneLanes {
  Planes<R> p;
  simd::Pack<W> operator()(int ir, int it, int d) const {
    return simd::Pack<W>::load(p.at(ir, it, d));
  }
};

}  // namespace yy::fd
