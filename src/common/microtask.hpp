/// \file microtask.hpp
/// Intra-rank fork-join microtasking for the overlapped stepping mode.
///
/// The paper's hybrid style microtasks one MPI process over the 8 APs
/// of an Earth Simulator node (§IV); this header is the workstation
/// stand-in: `parallel_regions(n, f)` runs f(0..n-1) concurrently and
/// joins, on plain std::thread fork-join.  ThreadSanitizer understands
/// the std::thread handshake natively, so the sanitize trees exercise
/// the threaded sweep with no false positives.
///
/// Thread count policy lives in env_threads(): the YY_THREADS
/// environment variable, read once, clamped to [1, hardware].  With
/// YY_THREADS unset (or 1) every call degenerates to a plain serial
/// loop on the calling thread — no threads are created, so default
/// builds behave exactly like the seed.
///
/// Costs of raising YY_THREADS: the reference RHS sweep keeps one
/// Workspace per thread (mhd::compute_rhs_parallel), but each pool
/// entry is sized to its φ-slab, not the full patch, so total scratch
/// stays within ~2× one patch-sized Workspace regardless of thread
/// count (tests/mhd/test_workspace_footprint.cpp pins this; the simd
/// backend's per-thread pencil rings are smaller still).  The remaining
/// cost is thread churn: every sweep spawns/joins fresh std::threads
/// (several per RK4 step), which can eat the overlap gain on small
/// patches.  Prefer modest thread counts sized to the patch.
///
/// Determinism contract: callers must give each region index a disjoint
/// write set (e.g. one φ-slab of the RHS sweep per region).  Work
/// partitioning may depend on n, but per-point arithmetic must not —
/// then results are bitwise identical for every thread count, which
/// tests/core/test_overlap_equivalence.cpp pins.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

namespace yy::common {

/// Threads requested via YY_THREADS (default 1; clamped to at least 1
/// and at most the hardware concurrency).  Read once per process.
inline int env_threads() {
  static const int n = [] {
    const char* e = std::getenv("YY_THREADS");
    int v = e != nullptr ? std::atoi(e) : 1;
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(v, 1, std::max(hw, 1));
  }();
  return n;
}

/// Invokes f(k) for every k in [0, n) concurrently and waits for all of
/// them.  n <= 1 runs inline on the calling thread.  Exceptions thrown
/// by f on worker threads terminate (they signal a programming error in
/// a hot loop, not a recoverable condition).
template <typename F>
void parallel_regions(int n, F&& f) {
  if (n <= 1) {
    if (n == 1) f(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n) - 1);
  for (int k = 1; k < n; ++k) workers.emplace_back([&f, k] { f(k); });
  f(0);
  for (std::thread& w : workers) w.join();
}

}  // namespace yy::common
