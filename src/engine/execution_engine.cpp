#include "engine/execution_engine.hpp"

#include <algorithm>

#include "robust/fault_inject.hpp"
#include "support/cpu_info.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace spmvopt::engine {

namespace {

/// Pin the calling thread to one CPU; false when the host refuses (masked
/// cpuset, non-Linux build) — the engine then runs unpinned, which is the
/// documented graceful fallback, not an error.
bool pin_self(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

#if defined(__linux__)
/// A thread's mask from before the first live pin_main engine pinned it, and
/// how many such engines live on it.  The mask comes back when the last of
/// them is destroyed, in whatever order they go.
struct CallerPin {
  cpu_set_t original;
  int live = 0;
};
thread_local CallerPin t_caller_pin;
#endif

}  // namespace

ExecutionEngine::ExecutionEngine(EngineConfig cfg) : cfg_(cfg) {
  if (cfg_.pool != nullptr) {
    // Pool-backed: no private team.  nthreads is the span count per
    // dispatch; by default one span per pool worker.
    nthreads_ = cfg_.nthreads > 0 ? cfg_.nthreads : cfg_.pool->nworkers();
    pinned_cpus_ = cfg_.pool->pinned_cpus();
    return;
  }
  nthreads_ = cfg_.nthreads > 0 ? cfg_.nthreads : default_threads();
  spawn_team();
}

void ExecutionEngine::spawn_team() {
  std::vector<int> cpus = pin_cpus(topology(), cfg_.pin, nthreads_);
  bool pinned_ok = !cpus.empty();
  if (pinned_ok && cfg_.pin_main) {
#if defined(__linux__)
    // Counted once: a recycle() re-pins, but this engine still holds one pin.
    CallerPin& cp = t_caller_pin;
    if (pinned_caller_ == std::thread::id{} &&
        (cp.live > 0 ||
         sched_getaffinity(0, sizeof(cp.original), &cp.original) == 0)) {
      ++cp.live;
      pinned_caller_ = std::this_thread::get_id();
    }
#endif
    pinned_ok = pin_self(cpus[0]);
  }

  workers_.reserve(static_cast<std::size_t>(nthreads_ - 1));
  for (int tid = 1; tid < nthreads_; ++tid)
    workers_.emplace_back([this, tid] { worker_loop(tid); });

  // Workers pin themselves on their first iteration via the staged CPU list;
  // simpler: pin from here before any dispatch can race with it.
  if (pinned_ok) {
    for (int tid = 1; tid < nthreads_; ++tid) {
#if defined(__linux__)
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<unsigned>(cpus[static_cast<std::size_t>(tid)]), &set);
      if (pthread_setaffinity_np(
              workers_[static_cast<std::size_t>(tid - 1)].native_handle(),
              sizeof(set), &set) != 0)
        pinned_ok = false;
#endif
    }
  }
  if (pinned_ok) pinned_cpus_ = std::move(cpus);
}

void ExecutionEngine::join_team() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

ExecutionEngine::~ExecutionEngine() {
  if (cfg_.pool == nullptr) join_team();
#if defined(__linux__)
  // Unpin the caller once no pin_main engine lives on it, or every later
  // thread and OpenMP team it starts would inherit the one-CPU mask.  Only on
  // the thread that was pinned: the count and mask are that thread's own.
  if (pinned_caller_ == std::this_thread::get_id() &&
      --t_caller_pin.live == 0)
    (void)sched_setaffinity(0, sizeof(t_caller_pin.original),
                            &t_caller_pin.original);
#endif
}

bool ExecutionEngine::recycle() {
  // The fault fires *before* teardown so an injected respawn failure leaves
  // the old team fully intact — degraded but serviceable, never headless.
  if (robust::fault_fire("engine.team_respawn")) return false;
  if (cfg_.pool != nullptr) {
    // Pool-backed: the watchdog semantics delegate to the shared pool.  The
    // caller guarantees quiescence (no dispatch in flight), same as here.
    cfg_.pool->recycle();
    pinned_cpus_ = cfg_.pool->pinned_cpus();
    ++recycles_;
    return true;
  }
  join_team();
  {
    // Reset the mailbox so the fresh workers (whose `seen` restarts at 0)
    // do not observe a stale generation and replay the last dispatch.
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
    generation_ = 0;
    fn_ = nullptr;
    ctx_ = nullptr;
    remaining_ = 0;
  }
  barrier_arrived_.store(0, std::memory_order_relaxed);
  barrier_generation_.store(0, std::memory_order_relaxed);
  pinned_cpus_.clear();
  spawn_team();
  ++recycles_;
  return true;
}

void ExecutionEngine::worker_loop(int tid) {
  std::uint64_t seen = 0;
  for (;;) {
    TeamFn fn;
    void* ctx;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      ctx = ctx_;
    }
    fn(ctx, tid, nthreads_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) done_.notify_one();
    }
  }
}

void ExecutionEngine::run_team(TeamFn fn, void* ctx) noexcept {
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  if (nthreads_ == 1) {  // degenerate team: a direct call, no synchronization
    fn(ctx, 0, 1);
    return;
  }
  if (cfg_.pool != nullptr) {
    cfg_.pool->run_spans(fn, ctx, nthreads_);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = fn;
    ctx_ = ctx;
    remaining_ = nthreads_ - 1;
    ++generation_;
  }
  wake_.notify_all();
  fn(ctx, 0, nthreads_);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return remaining_ == 0; });
}

void ExecutionEngine::team_barrier() noexcept {
  const std::uint64_t gen = barrier_generation_.load(std::memory_order_acquire);
  if (barrier_arrived_.fetch_add(1, std::memory_order_acq_rel) ==
      nthreads_ - 1) {
    barrier_arrived_.store(0, std::memory_order_relaxed);
    barrier_generation_.fetch_add(1, std::memory_order_release);
  } else {
    while (barrier_generation_.load(std::memory_order_acquire) == gen)
      std::this_thread::yield();
  }
}

numa_vector<value_t> ExecutionEngine::touched_vector(index_t n) {
  numa_vector<value_t> v(static_cast<std::size_t>(n));
  value_t* data = v.data();
  parallel([data, n](int tid, int nt) {
    const auto lo = static_cast<std::size_t>(
        static_cast<std::int64_t>(n) * tid / nt);
    const auto hi = static_cast<std::size_t>(
        static_cast<std::int64_t>(n) * (tid + 1) / nt);
    first_touch_zero(data + lo, hi - lo);
  });
  return v;
}

numa_vector<value_t> ExecutionEngine::touched_vector(index_t n,
                                                     const RowPartition& part) {
  numa_vector<value_t> v(static_cast<std::size_t>(n));
  value_t* data = v.data();
  const RowPartition* p = &part;
  parallel([data, n, p](int tid, int nt) {
    // Partitions round-robin over the team (covers part.nthreads() != nt);
    // the owner of the last partition also adopts any tail beyond
    // bounds.back() (n may exceed nrows for padded operands).
    for (int t = tid; t < p->nthreads(); t += nt) {
      auto lo = static_cast<std::size_t>(p->bounds[static_cast<std::size_t>(t)]);
      auto hi =
          static_cast<std::size_t>(p->bounds[static_cast<std::size_t>(t) + 1]);
      if (t == p->nthreads() - 1) hi = static_cast<std::size_t>(n);
      hi = std::min(hi, static_cast<std::size_t>(n));
      lo = std::min(lo, hi);
      first_touch_zero(data + lo, hi - lo);
    }
  });
  return v;
}

}  // namespace spmvopt::engine
