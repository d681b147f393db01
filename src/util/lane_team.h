// A fixed team of lane threads for the solver's parallel partition
// execution. A LaneTeam is created per query (its lifetime is the query's
// lifetime, matching the lanes' partition ownership), and Run(fn) executes
// fn(lane) on every lane concurrently, returning only when all lanes have
// finished — the iteration barrier.
//
// Every lane thread marks itself as a pool worker (ThreadPool::
// MarkWorkerThread) so kernel-level ParallelFor degrades to a serial loop
// inside the lane: lanes are the unit of parallelism, and nesting pool
// batches under them would serialize all lanes on the pool's submission
// lock.
//
// Determinism: Run dispatches by lane index with static assignment; a lane
// executes its phases serially and in the same order every run, so at a
// fixed lane count the execution is deterministic up to the atomics the
// phase function itself uses.

#ifndef HYTGRAPH_UTIL_LANE_TEAM_H_
#define HYTGRAPH_UTIL_LANE_TEAM_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hytgraph {

class LaneTeam {
 public:
  /// Spawns `num_lanes` lane threads (none for a 1-lane team, which runs
  /// inline on the caller in Run, so its kernels may still shard over the
  /// thread pool). num_lanes must be >= 1.
  explicit LaneTeam(int num_lanes);
  ~LaneTeam();

  LaneTeam(const LaneTeam&) = delete;
  LaneTeam& operator=(const LaneTeam&) = delete;

  int num_lanes() const { return num_lanes_; }

  /// Runs fn(lane) for every lane in [0, num_lanes) concurrently and blocks
  /// until all lanes return (the barrier). Must not be called reentrantly
  /// from inside a phase function.
  void Run(const std::function<void(int lane)>& fn);

 private:
  void LaneLoop(int lane);

  const int num_lanes_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int lane)>* fn_ = nullptr;  // guarded by mu_
  uint64_t epoch_ = 0;
  int remaining_ = 0;
  bool shutdown_ = false;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_UTIL_LANE_TEAM_H_
