/// \file simd.hpp
/// Portable fixed-width lane abstraction for the SIMD RHS backend.
///
/// Pack<W> wraps a GCC/Clang vector of W doubles (W = 1, 2, 4, 8) with
/// elementwise +, −, ×, ÷ and unaligned load/store.  Every operator is
/// strictly elementwise IEEE-754 double arithmetic: lane i of a ⊙ b is
/// bitwise-identical to the scalar expression a[i] ⊙ b[i].  Combined
/// with the global `-ffp-contract=off` (top-level CMakeLists) this is
/// what makes the SIMD sweep in mhd/rhs_simd.cpp bitwise-equal at every
/// width to the scalar reference chain: same expression tree, no
/// reassociation, no FMA contraction — only the loop is wider.
///
/// Width policy (all implemented in simd.cpp, the one TU compiled with
/// the native ISA flags so the __AVX512F__/__AVX2__/__SSE2__ macros are
/// meaningful there):
///  * compiled_max_width() — widest pack the build supports (1 when the
///    CMake option -DYY_SIMD=OFF defined YY_SIMD_DISABLED).
///  * active_width() — compiled max, overridable once per process by
///    the YY_SIMD environment variable ("scalar" or 1/2/4/8, clamped
///    to the compiled max).  Stamped into RunManifest by the drivers.
///  * force_active_width(w) — test hook to sweep widths in-process.
///
/// Lane statistics are the measured counterpart of the modeled Earth
/// Simulator vector columns (perf/es_model): the SIMD sweep charges,
/// analytically per call, how many pack trips it issued and how many
/// points were written by packs wider than one lane.
#pragma once

#include <cstdint>

namespace yy::simd {

namespace detail {

/// The GCC vector type of W doubles and its register splat.  The splat
/// is a per-width explicit initializer: GCC rejects `V{s, …}` inside
/// Pack<W> while W is dependent, so each width spells its own list.
/// It assigns through a reference rather than returning V, which would
/// draw -Wpsabi in the TUs built without the native ISA flags.
template <int W>
struct Lanes;
template <>
struct Lanes<1> {
  typedef double V __attribute__((vector_size(8)));
  static void splat(V& v, double s) { v = V{s}; }
};
template <>
struct Lanes<2> {
  typedef double V __attribute__((vector_size(16)));
  static void splat(V& v, double s) { v = V{s, s}; }
};
template <>
struct Lanes<4> {
  typedef double V __attribute__((vector_size(32)));
  static void splat(V& v, double s) { v = V{s, s, s, s}; }
};
template <>
struct Lanes<8> {
  typedef double V __attribute__((vector_size(64)));
  static void splat(V& v, double s) { v = V{s, s, s, s, s, s, s, s}; }
};

}  // namespace detail

/// W contiguous doubles with elementwise arithmetic (see file comment).
template <int W>
struct Pack {
  static_assert(W == 1 || W == 2 || W == 4 || W == 8,
                "supported lane widths: 1, 2, 4, 8");
  typedef typename detail::Lanes<W>::V V;
  V v;

  static constexpr int width = W;

  Pack() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): broadcast, so that the
  // mixed scalar⊙pack expressions in the stencils read like the scalar
  // originals (`2.0 * ri * vrc` etc.).
  //
  // A register splat (one vbroadcastsd on AVX-512): every lane is
  // initialized with `s` itself — no arithmetic, so it is exact for
  // every payload, −0.0, subnormals, ±inf and NaN payloads included.
  // Copying through a stack array instead compiles to two 32-byte
  // stores and a 64-byte reload per broadcast, which defeats store
  // forwarding in every scalar⊙pack node of the stencils.
  Pack(double s) { detail::Lanes<W>::splat(v, s); }

  static Pack wrap(V x) {
    Pack r;
    r.v = x;
    return r;
  }

  /// Unaligned load of W consecutive doubles.
  static Pack load(const double* p) {
    Pack r;
    __builtin_memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  /// Unaligned store of W consecutive doubles.
  void store(double* p) const { __builtin_memcpy(p, &v, sizeof(v)); }

  double lane(int i) const {
    double tmp[W];
    __builtin_memcpy(tmp, &v, sizeof(v));
    return tmp[i];
  }

  friend Pack operator+(Pack a, Pack b) { return wrap(a.v + b.v); }
  friend Pack operator-(Pack a, Pack b) { return wrap(a.v - b.v); }
  friend Pack operator*(Pack a, Pack b) { return wrap(a.v * b.v); }
  friend Pack operator/(Pack a, Pack b) { return wrap(a.v / b.v); }
  Pack operator-() const { return wrap(-v); }
  Pack& operator+=(Pack o) {
    v += o.v;
    return *this;
  }
  Pack& operator-=(Pack o) {
    v -= o.v;
    return *this;
  }
};

/// Widest pack this build's SIMD TUs were compiled for: 8 (AVX-512),
/// 4 (AVX2), 2 (SSE2 / x86-64 baseline), or 1 (-DYY_SIMD=OFF or an
/// ISA without double lanes).
int compiled_max_width();

/// Short name of the ISA behind compiled_max_width(): "avx512",
/// "avx2", "sse2", "scalar", or "off" (-DYY_SIMD=OFF).
const char* compiled_isa();

/// Parses a YY_SIMD override value: "scalar" → 1, "1"/"2"/"4"/"8" →
/// that width clamped down to `max_width`; null/empty/unrecognized →
/// `max_width`.  Exposed separately so tests can cover the parse
/// without mutating the process environment.
int parse_width_override(const char* value, int max_width);

/// The lane width compute_rhs_simd dispatches to: a test-forced width
/// if set, else the YY_SIMD environment override (read once, cached),
/// else compiled_max_width().
int active_width();

/// Test hook: force active_width() to `w` (1/2/4/8); 0 restores the
/// environment/default policy.  Not for production use.
void force_active_width(int w);

/// Analytic per-sweep lane accounting (the measured counterpart of the
/// ES model's average-vector-length / vector-op-ratio columns).  The
/// SIMD sweep walks each radial line of L points in ⌈L/W⌉ W-lane packs,
/// the last one shifted back to end at the line's end; a line shorter
/// than W is walked at W/2, recursively, down to one scalar trip for a
/// one-point line.
struct LaneStats {
  std::uint64_t iterations = 0;     ///< pack trips issued, overlapped
                                    ///< last packs and narrower packs on
                                    ///< short lines included
  std::uint64_t vector_points = 0;  ///< distinct points written by a pack
                                    ///< wider than one lane
  std::uint64_t points = 0;         ///< distinct points swept

  /// Mean distinct points retired per trip (ES "average vector length"
  /// analogue; equals the width when every line divides evenly, and
  /// falls below it by the points an overlapped last pack recomputes).
  double avg_vector_length() const {
    return iterations > 0 ? static_cast<double>(points) /
                                static_cast<double>(iterations)
                          : 0.0;
  }
  /// Fraction of points written by a pack wider than one lane (ES
  /// "vector operation ratio" analogue; 1 unless a line has a single
  /// point, 0 for the scalar fallback).
  double vector_coverage() const {
    return points > 0 ? static_cast<double>(vector_points) /
                            static_cast<double>(points)
                      : 0.0;
  }
};

/// Adds one sweep's counts to the global aggregate.  Thread-safe.
void lane_stats_add(const LaneStats& s);

/// Global aggregate since the last reset.  Thread-safe.
LaneStats lane_stats_total();

/// Resets the global aggregate.
void lane_stats_reset();

}  // namespace yy::simd
