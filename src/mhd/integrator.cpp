#include "mhd/integrator.hpp"

#include "common/error.hpp"
#include "common/microtask.hpp"
#include "obs/trace.hpp"

namespace yy::mhd {

Integrator::Integrator(TimeScheme scheme,
                       const std::vector<const SphericalGrid*>& grids,
                       RhsBackend backend)
    : scheme_(scheme), backend_(backend), grids_(grids) {
  YY_REQUIRE(!grids.empty());
  for (const SphericalGrid* g : grids_) {
    k_.emplace_back(*g);
    if (scheme != TimeScheme::euler) stage_.emplace_back(*g);
    if (scheme == TimeScheme::rk4) acc_.emplace_back(*g);
  }
  if (backend_ == RhsBackend::reference) {
    // Pre-grow the unthreaded reference workspace to the full patch;
    // pencil rings and the extra thread entries size themselves on
    // first sweep.
    ws_.resize(grids_.size());
    for (std::size_t i = 0; i < grids_.size(); ++i)
      ws_[i].emplace_back(*grids_[i]);
  } else {
    pw_.resize(grids_.size());
  }
}

void Integrator::step(const std::vector<PatchDef>& patches, double dt,
                      const FillFn& fill, const OverlapHooks* overlap) {
  const std::size_t n = patches.size();
  YY_REQUIRE(n == grids_.size());

  std::vector<Fields*> stage_ptrs(n);
  std::vector<Fields*> state_ptrs(n);
  for (std::size_t i = 0; i < n; ++i) {
    YY_REQUIRE(patches[i].grid == grids_[i]);
    stage_ptrs[i] = stage_.empty() ? nullptr : &stage_[i];
    state_ptrs[i] = patches[i].state;
  }

  const int nthreads = overlap ? common::env_threads() : 1;

  // k_[i] = f(src) over `box` on `threads` φ-slabs.  The backends are
  // bitwise equivalent (rhs.hpp) and differ only in scratch shape and
  // sweep structure; one thread is the plain monolithic sweep.
  auto rhs = [&](std::size_t i, const Fields& src, const IndexBox& box,
                 int threads) {
    if (backend_ == RhsBackend::simd) {
      compute_rhs_parallel_simd(*grids_[i], patches[i].eq, src, k_[i], pw_[i],
                                box, threads);
    } else {
      compute_rhs_parallel(*grids_[i], patches[i].eq, src, k_[i], ws_[i], box,
                           threads);
    }
  };

  // k_[i] = f(src[i]) over the full interior; the first evaluation of
  // every step (incoming ghosts are valid; nothing to overlap) and the
  // synchronous path for the later ones.
  auto rhs_full = [&](const std::vector<Fields*>& src) {
    for (std::size_t i = 0; i < n; ++i) {
      YY_TRACE_SCOPE(obs::Phase::rhs);
      rhs(i, *src[i], grids_[i]->interior(), nthreads);
    }
  };

  // Refresh the ghosts of `src`, then k_[i] = f(src[i]).  Overlapped:
  // post the exchanges, evaluate the rim-shrunk interior while the
  // messages fly, complete the exchanges, evaluate the rim.  Each box
  // is an independent pointwise sweep, so interior + rim is bitwise
  // the monolithic evaluation.
  auto fill_then_rhs = [&](const std::vector<Fields*>& src) {
    if (overlap == nullptr) {
      fill(src);
      rhs_full(src);
      return;
    }
    overlap->post(src);
    for (std::size_t i = 0; i < n; ++i) {
      YY_TRACE_SCOPE(obs::Phase::interior_rhs);
      const RhsSplit sp =
          split_rhs_box(grids_[i]->interior(), overlap->rim_width);
      rhs(i, *src[i], sp.interior, nthreads);
    }
    overlap->finish(src);
    for (std::size_t i = 0; i < n; ++i) {
      YY_TRACE_SCOPE(obs::Phase::rim_rhs);
      const RhsSplit sp =
          split_rhs_box(grids_[i]->interior(), overlap->rim_width);
      for (const IndexBox& b : sp.rim) rhs(i, *src[i], b, 1);
    }
  };

  // Stage-combination algebra, one traced span per stage.
  auto combine = [&](const auto& body) {
    YY_TRACE_SCOPE(obs::Phase::rk4_stage);
    for (std::size_t i = 0; i < n; ++i) body(*patches[i].state, i);
  };

  rhs_full(state_ptrs);  // k1 = f(y)
  switch (scheme_) {
    case TimeScheme::euler:
      combine([&](Fields& y, std::size_t i) { y.axpy(dt, k_[i]); });
      break;

    case TimeScheme::rk2:
      // Midpoint: y* = y + dt/2 k1; y ← y + dt f(y*).
      combine([&](Fields& y, std::size_t i) {
        stage_[i].assign_axpy(y, dt / 2.0, k_[i]);
      });
      fill_then_rhs(stage_ptrs);
      combine([&](Fields& y, std::size_t i) { y.axpy(dt, k_[i]); });
      break;

    case TimeScheme::rk4:
      combine([&](Fields& y, std::size_t i) {
        acc_[i].copy_from(y);
        acc_[i].axpy(dt / 6.0, k_[i]);
        stage_[i].assign_axpy(y, dt / 2.0, k_[i]);
      });
      fill_then_rhs(stage_ptrs);  // k2 = f(y + dt/2 k1)
      combine([&](Fields& y, std::size_t i) {
        acc_[i].axpy(dt / 3.0, k_[i]);
        stage_[i].assign_axpy(y, dt / 2.0, k_[i]);
      });
      fill_then_rhs(stage_ptrs);  // k3 = f(y + dt/2 k2)
      combine([&](Fields& y, std::size_t i) {
        acc_[i].axpy(dt / 3.0, k_[i]);
        stage_[i].assign_axpy(y, dt, k_[i]);
      });
      fill_then_rhs(stage_ptrs);  // k4 = f(y + dt k3)
      combine([&](Fields& y, std::size_t i) {
        y.copy_from(acc_[i]);
        y.axpy(dt / 6.0, k_[i]);  // y ← acc + dt/6 k4
      });
      break;
  }
  fill(state_ptrs);
}

}  // namespace yy::mhd
