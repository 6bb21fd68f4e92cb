// Deterministic fork-join worker pool for the dispersal hot path.
//
// The leader's two heavy per-datablock stages — Reed-Solomon parity encode
// and Merkle leaf hashing — are embarrassingly parallel per byte range /
// per row. This pool runs ONE data-parallel task at a time over a fixed set
// of lanes with static chunked partitioning:
//
//   - lane i always receives the same contiguous chunk of [0, count) for a
//     given (count, align, lanes), so the work split is a pure function of
//     the inputs — no stealing, no dynamic scheduling, no ordering races;
//   - lanes write disjoint output ranges, so results are byte-identical to
//     the serial computation for EVERY pool size (size 1 runs the task
//     inline on the caller thread with zero synchronization — bit-for-bit
//     today's serial path);
//   - the dispatch path performs no allocation: the job descriptor is a
//     POD slot guarded by the pool mutex, and callers pass a function
//     pointer + context (the template adapter keeps the callable on the
//     caller's stack for the blocking duration of run()).
//
// The pool is deliberately NOT a general task executor: run() is blocking
// and non-reentrant. Any number of threads may dispatch (the in-process
// nodes of a loopback cluster, the shard cores of a node): a multi-lane job
// holds the dispatch mutex for its whole run, so concurrent dispatchers
// queue and each job still sees every lane. The one-lane path runs inline
// and takes no lock. The simulator stays single-threaded and deterministic
// — the pool only accelerates pure compute kernels whose outputs are
// order-independent.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace leopard::util {

class WorkerPool {
 public:
  /// A data-parallel task body: process [begin, end) as lane `lane`.
  using TaskFn = void (*)(void* ctx, std::size_t lane, std::size_t begin, std::size_t end);

  /// Hard cap on lanes (threads are expensive; beyond the core count they
  /// only add contention).
  static constexpr std::size_t kMaxLanes = 64;

  /// `lanes` parallel execution lanes: the caller thread plus lanes-1
  /// workers. lanes == 1 spawns no threads at all.
  explicit WorkerPool(std::size_t lanes = 1);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t lanes() const { return lanes_; }

  /// Re-sizes the lane count (clamped to [1, kMaxLanes]), joining or
  /// spawning workers as needed. Must not be called concurrently with run().
  void resize(std::size_t lanes);

  /// The deterministic static partition: the chunk lane `lane` of `lanes`
  /// receives from [0, count), with chunk boundaries rounded up to `align`
  /// (the final chunk takes the remainder). Chunks are contiguous,
  /// disjoint, cover [0, count), and depend only on the arguments.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> chunk_of(std::size_t count,
                                                                    std::size_t align,
                                                                    std::size_t lanes,
                                                                    std::size_t lane);

  /// Runs `fn` over [0, count) split into lanes() chunks; blocks until every
  /// lane finished. The caller thread executes lane 0. Empty chunks are not
  /// invoked. No allocation on this path. Thread-safe: a multi-lane job
  /// waits for any other thread's job to finish first.
  void run(std::size_t count, std::size_t align, TaskFn fn, void* ctx);

  /// Adapter for callables: f(lane, begin, end). The callable stays on the
  /// caller's stack (run() blocks), so capturing locals by reference is safe.
  template <typename F>
  void for_ranges(std::size_t count, std::size_t align, F&& f) {
    auto& body = f;  // materialize a referencable lvalue for the thunk ctx
    run(count, align,
        [](void* ctx, std::size_t lane, std::size_t begin, std::size_t end) {
          (*static_cast<std::remove_reference_t<F>*>(ctx))(lane, begin, end);
        },
        &body);
  }

  /// The process-wide pool the erasure/crypto hot paths dispatch through.
  /// Defaults to 1 lane (serial); the harness sizes it from Config and
  /// benches/tests resize it around measurements.
  static WorkerPool& global();

 private:
  /// One dispatched job; copied by each worker under the lock.
  struct Job {
    TaskFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t count = 0;
    std::size_t align = 1;
    std::size_t lanes = 1;
  };

  void worker_loop(std::size_t lane);
  void stop_workers();

  std::mutex dispatch_mu_;  // held by a multi-lane run() for its whole job
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a new epoch or stop
  std::condition_variable done_cv_;  // dispatcher: all lanes finished
  std::uint64_t epoch_ = 0;          // bumps once per dispatched job
  std::size_t pending_ = 0;          // workers still running the current job
  bool stop_ = false;
  Job job_;

  std::size_t lanes_ = 1;
  std::vector<std::thread> threads_;  // lanes_ - 1 workers
};

}  // namespace leopard::util
