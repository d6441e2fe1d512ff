// ExecutionEngine: a persistent, affinity-pinned thread team.
//
// Every OpenMP kernel in src/kernels/ opens its own `#pragma omp parallel`
// region, paying a team fork/join on every SpMV call — noise for one large
// matrix, but real overhead for the iterative-solver sweeps of §IV-D where a
// matvec can be microseconds.  The engine keeps one team alive for its whole
// lifetime: worker threads are spawned once, pinned once (pthread affinity
// driven by the support/topology probe), and parked on a condition variable
// between dispatches.  A dispatch hands the team a plain function pointer +
// context and costs one wake/notify round trip instead of a team spawn.
//
// The calling thread is team member 0: it executes its own share of every
// dispatch, so an engine of size 1 degenerates to a direct call with zero
// synchronization — the fast path for small matrices.
//
// Threading contract (mailbox mode): one dispatch at a time per engine
// (run_team blocks until the team is done).  Mailbox engines are not
// thread-safe; share one engine across call sites, not across concurrent
// callers.  Team functions must not throw and must not dispatch recursively.
//
// Pool-backed mode (DESIGN.md §12): when EngineConfig::pool is set, the
// engine spawns no private team — every dispatch becomes a task group of
// nthreads() spans on the shared work-stealing StealPool, and run_team IS
// thread-safe (N callers' spans interleave on the pool's workers instead of
// serializing).  The single-caller fast paths are preserved: a size-1
// dispatch is still a direct call, and mailbox engines are untouched.
// team_barrier() is forbidden in pool-backed dispatches — spans of one group
// may execute sequentially on one worker, so an in-dispatch barrier can
// deadlock; pooled team bodies must be phased (dispatch, join, fix up)
// instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/steal_pool.hpp"
#include "support/numa_alloc.hpp"
#include "support/partition.hpp"
#include "support/topology.hpp"
#include "support/types.hpp"

namespace spmvopt::engine {

struct EngineConfig {
  int nthreads = 0;  ///< team size; <= 0 means default_threads()
  PinPolicy pin = PinPolicy::Compact;
  /// Pin the calling thread too (it is team member 0).  Off for callers that
  /// must keep their own affinity (e.g. a server's request thread).  The
  /// thread's previous mask comes back once every pin_main engine built on it
  /// has been destroyed on it, in any order.
  bool pin_main = true;
  /// Pool-backed mode: run dispatches as task spans on this shared
  /// work-stealing pool instead of a private mailbox team.  The pool must
  /// outlive the engine; pin/pin_main are then the pool's concern and
  /// nthreads only sets the span count (partition granularity), defaulting
  /// to the pool's worker count.
  StealPool* pool = nullptr;
};

class ExecutionEngine {
 public:
  explicit ExecutionEngine(EngineConfig cfg = {});
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  [[nodiscard]] int nthreads() const noexcept { return nthreads_; }
  [[nodiscard]] PinPolicy pin_policy() const noexcept { return cfg_.pin; }
  /// True when dispatches run on a shared StealPool (concurrent-caller
  /// safe, but team_barrier() is forbidden inside dispatches).
  [[nodiscard]] bool pooled() const noexcept { return cfg_.pool != nullptr; }
  [[nodiscard]] StealPool* pool() const noexcept { return cfg_.pool; }
  /// CPU id each team member was pinned to; empty when policy is None or
  /// pinning failed (non-Linux, restricted cgroup).
  [[nodiscard]] const std::vector<int>& pinned_cpus() const noexcept {
    return pinned_cpus_;
  }
  /// Dispatches served since construction (stats for bench/CLI output).
  [[nodiscard]] std::uint64_t dispatch_count() const noexcept {
    return dispatches_.load(std::memory_order_relaxed);
  }
  /// Successful recycle() calls (the server's self-healing counter).
  [[nodiscard]] std::uint64_t recycle_count() const noexcept {
    return recycles_;
  }

  /// Self-healing: tear the worker team down (join every thread) and re-spawn
  /// + re-pin a fresh one through the same topology path as construction.
  /// The server watchdog calls this after a job overran its deadline badly
  /// enough to suggest a wedged/poisoned team.  Must not be called
  /// concurrently with a dispatch (the caller serializes, e.g. the server
  /// executor between jobs).  Returns false — leaving the existing team fully
  /// intact and serviceable — when the respawn is vetoed (fault point
  /// `engine.team_respawn`).
  [[nodiscard]] bool recycle();

  /// Hot-path dispatch: run `fn(ctx, tid, nthreads())` on every team member
  /// and return when all have finished.  The caller runs tid 0 inline.
  using TeamFn = void (*)(void* ctx, int tid, int nthreads);
  void run_team(TeamFn fn, void* ctx) noexcept;

  /// Checked convenience wrapper over run_team for setup-path callables
  /// (first-touch materialization, tests).  F is `void(int tid, int nt)`.
  template <class F>
  void parallel(F&& f) {
    const auto trampoline = [](void* p, int tid, int nt) {
      (*static_cast<F*>(p))(tid, nt);
    };
    run_team(trampoline, const_cast<void*>(static_cast<const void*>(&f)));
  }

  /// In-dispatch barrier: every team member must call it the same number of
  /// times.  Valid only inside a team function, and only in mailbox mode —
  /// a pool-backed dispatch may run several spans on one worker, so a
  /// barrier inside one would deadlock.
  void team_barrier() noexcept;

  /// A zero-filled value vector whose pages were first-touched by the team,
  /// each thread an even slice — NUMA-correct storage for x/y operands.
  [[nodiscard]] numa_vector<value_t> touched_vector(index_t n);

  /// Same, but ownership follows a row partition (thread t touches rows
  /// [bounds[t], bounds[t+1])) so y placement matches the kernel's writes.
  [[nodiscard]] numa_vector<value_t> touched_vector(index_t n,
                                                    const RowPartition& part);

 private:
  void worker_loop(int tid);
  void spawn_team();
  void join_team();

  /// The thread pin_main pinned, while this engine holds that pin (restored
  /// once the thread's last such engine is destroyed); empty otherwise.
  std::thread::id pinned_caller_;

  EngineConfig cfg_;
  int nthreads_ = 1;
  std::vector<int> pinned_cpus_;
  /// Atomic because pool-backed engines accept concurrent run_team calls.
  std::atomic<std::uint64_t> dispatches_{0};
  std::uint64_t recycles_ = 0;

  // Dispatch mailbox: `generation_` bumps under `mutex_` after `fn_`/`ctx_`
  // are staged; workers sleep on `wake_` until they observe a new generation
  // (or `stop_`).  Completion flows back through `remaining_` + `done_`.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  TeamFn fn_ = nullptr;
  void* ctx_ = nullptr;
  int remaining_ = 0;

  // Centralized generation barrier for team_barrier().
  std::atomic<int> barrier_arrived_{0};
  std::atomic<std::uint64_t> barrier_generation_{0};

  std::vector<std::thread> workers_;  ///< nthreads_ - 1 entries
};

}  // namespace spmvopt::engine
