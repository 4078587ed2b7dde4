//===- shard/ShardRunner.h - Multi-process sharded timestepping -*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded execution mode for the paper's Section 5.6 workload: the
/// coordinator forks one worker process per shard, each owning a
/// contiguous slab of the box grid (Topology.h). Every timestep a worker
/// sends its boundary halo slabs to its ring neighbors, computes interior
/// boxes on a spawned thread while the exchange is in flight (the
/// interior footprint needs no remote data, so compute/communication
/// overlap falls out of the ownership map), then fills boundary ghosts
/// from the received slabs, computes the boundary boxes, and checkpoints
/// its interiors to the coordinator.
///
/// The mode is fail-operational rather than merely functional. The
/// coordinator's copy of the grid only advances when EVERY rank reports a
/// step complete, so it is always a consistent pre-step snapshot. Workers
/// enforce per-exchange deadlines (LCDFG_SHARD_TIMEOUT_MS) with bounded
/// exponential-backoff resend retries over checksummed frames; the
/// coordinator tracks per-worker heartbeats and a step deadline. Peer
/// death (E018-peer-lost) or an exhausted exchange (E019-exchange-timeout)
/// triggers the L009-shard-degraded descent: kill the remaining workers,
/// keep the untouched snapshot, and finish every remaining step
/// single-process scalar-serial — bit-identical to a never-sharded run,
/// because ghost doubles are copied exactly and per-box compute is
/// deterministic. exec::FaultInjector's peer:kill / msg:drop /
/// msg:truncate / msg:delay sites make every rung of that story
/// drillable (docs/SHARDING.md).
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SHARD_SHARDRUNNER_H
#define LCDFG_SHARD_SHARDRUNNER_H

#include "exec/Recovery.h"
#include "runtime/GhostExchange.h"
#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace lcdfg {
namespace shard {

/// One box's per-step kernel: reads In's interior + ghosts, writes Out's
/// interior. Must be deterministic — the L009 bit-identity guarantee
/// rests on it.
using StepFn = std::function<void(const rt::Box &In, rt::Box &Out)>;

/// Sharded-run configuration.
struct ShardOptions {
  /// Worker processes; 1 runs the loop in-process without forking.
  int Shards = 1;
  /// Worker-local compute threads (plain std::threads — forked children
  /// must not touch the global ThreadPool, whose threads fork does not
  /// duplicate).
  int Threads = 1;
  /// Per-exchange deadline in ms; also paces heartbeats and the
  /// coordinator's step deadline (4x). LCDFG_SHARD_TIMEOUT_MS overrides.
  int TimeoutMs = 2000;
  /// msg:delay fault duration in ms; -1 means 3 * TimeoutMs, i.e. past
  /// the deadline. LCDFG_SHARD_DELAY_MS overrides (a small value turns
  /// the delay fault into a recoverable late-frame drill).
  int DelayMs = -1;

  /// Applies the LCDFG_SHARD_* environment overrides to \p Base.
  static ShardOptions fromEnv(ShardOptions Base);
};

/// Counters mirrored into obs (rt.shard.*) after the run.
struct ShardStats {
  std::int64_t Exchanges = 0; ///< Completed per-worker exchange phases.
  std::int64_t Bytes = 0;     ///< Halo payload bytes sent.
  std::int64_t Retries = 0;   ///< Resend requests issued.
  std::int64_t Timeouts = 0;  ///< Terminal exchange deadline failures.
  std::int64_t PeersLost = 0; ///< Worker processes lost mid-protocol.
};

/// What a sharded run did: the same outcome record as exec::RunReport
/// (FinalRung is "sharded-N" or "shard-degraded-serial"; Recovered means
/// completed after an L009 descent), so report tooling and CI greps treat
/// both uniformly, plus the exchange stats.
struct ShardReport : exec::RunOutcome {
  ShardStats Stats;
  double Seconds = 0.0;

  std::string toString() const;
  /// The RunReport shape with "stats" before "error"; \p Tail, a rendered
  /// member, goes last (lcdfg-opt's oracle verdict).
  std::string toJson(std::string Tail = "") const;
};

/// Runs \p Steps timesteps of (ghost exchange, then \p Fn per box, then
/// commit) over \p Boxes, sharded across Opts.Shards worker processes.
/// On success Boxes holds the final state; on an L009 descent it still
/// does, recomputed single-process from the last committed snapshot.
/// Validation failures (bad grid, Shards > Bz) return !Completed with the
/// structured error and Boxes untouched. Never throws.
///
/// Must be called from a single-threaded process state when Shards > 1
/// (fork duplicates only the calling thread; the global pool's workers
/// would be silently absent in the children).
ShardReport runSharded(std::vector<rt::Box> &Boxes,
                       const rt::GridLayout &Layout, int Steps,
                       const StepFn &Fn, const ShardOptions &Opts = {});

/// The single-process scalar-serial reference loop: exchange, step every
/// box, commit. The oracle sharded runs are compared against, and the
/// body of the L009 serial fallback.
support::Status runSerialReference(std::vector<rt::Box> &Boxes,
                                   const rt::GridLayout &Layout, int Steps,
                                   const StepFn &Fn);

} // namespace shard
} // namespace lcdfg

#endif // LCDFG_SHARD_SHARDRUNNER_H
