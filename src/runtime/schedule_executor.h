#pragma once

// Schedule-driven op-dispatch engine: executes a generator-emitted
// PipelineSchedule with real numerics.
//
// The simulator predicts what a schedule *should* cost; this engine makes a
// schedule actually *run*: one OS thread per device issues that device's ops
// in a fixed order, dispatching each op (F, B/BI/BW, S, T, i, j, collective)
// to an OpRunner the trainer provides. P2P transfers are non-blocking sends
// into per-device mailbox Channels, so a producer keeps computing while its
// consumer is still busy; collectives rendezvous on a DeviceGroup in an
// order that is identical across devices by construction.
//
// Ordering and deadlock-freedom
// -----------------------------
// Static verification (src/analysis/verifier) is a *precondition*: the
// executor refuses schedules whose condensed dependency graph (dep edges +
// per-lane issue-order edges + collective members contracted to one node)
// is not provably acyclic. Lowering now lives in program::compile_schedule:
// the compiler derives ONE global topological order — Kahn's algorithm with
// ties broken by the discrete-event simulator's predicted start times — and
// each device executes the projection of that common linearization onto its
// ops. All devices therefore issue shared collectives in the same relative
// order, and every cross-device dependency points backward in the common
// order: with sends non-blocking and receives tag-addressed, the smallest
// incomplete op in the order always has its producers completed, so the
// execution cannot deadlock.
//
// Execution
// ---------
// The executor compiles its schedule to per-device bytecode at construction
// and statically re-verifies the program against the source (translation
// validation; see src/program). run() executes a set of local lanes — every
// device in one process, or one device per worker process — through one
// lane loop that walks the compiled program: CALL/COLL dispatch the source
// op to the OpRunner, and after the lane's last op the OpRunner's end_lane
// hook runs on the same thread (the trainer steps the device's optimizer
// there). SEND/RECV/BARRIER/ALLOC/FREE are static facts the program
// verifier has proved — every cross-device edge points backward in the
// certified linearization and memory balances — and at run time the
// trainer's tag-addressed channels and collective group already enforce
// them, so the loop spends no synchronization of its own on them.
//
// Thread-pool partitioning
// ------------------------
// The PR-1 ThreadPool singleton would oversubscribe the machine if all p
// device threads submitted to it at once (all but one would fall back to
// serial). Instead the executor owns p private pools of width
// floor(total_width / p) and installs one per device thread via ScopedPool;
// when the width quotient drops below 2 the device threads run their
// kernels serially (ScopedPool(nullptr)).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/abort_token.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "guard/nan_fence.h"
#include "program/bytecode.h"
#include "schedule/ops.h"

namespace vocab::parallel {
class ThreadPool;
}

namespace vocab {

/// Callback interface the trainer implements: executes one op's numerics.
/// `run_op` is invoked on the device thread of `op.device`; ops of one
/// device never run concurrently with each other, ops of different devices
/// do. Collective members are invoked on every member device; the runner is
/// expected to rendezvous them (e.g. through a DeviceGroup).
class OpRunner {
 public:
  virtual ~OpRunner() = default;
  virtual void run_op(const Op& op) = 0;
  /// Called once on `device`'s thread, inside its ScopedPool, after the
  /// lane's last op succeeded, unless the run is already aborted by then. A
  /// lane that fails never reaches it. Peers may still be running their
  /// tails and can still fail afterwards, so a failed run may have called
  /// it on some devices. Exceptions follow run_op's failure protocol.
  virtual void end_lane(int /*device*/) {}
};

/// Wall-clock accounting of one run().
struct ExecutorStats {
  /// From the run's start to the last local lane's final op (end_lane
  /// hooks excluded).
  double wall_seconds = 0.0;
  /// Per device: seconds spent inside compute-stream ops (transformer and
  /// vocabulary passes). Communication waits inside those ops count as busy,
  /// so 1 - busy/wall is a lower bound on the true idle fraction.
  std::vector<double> compute_seconds;

  [[nodiscard]] double idle_fraction(int device) const;
};

/// Per-device dispatch engine for one verified PipelineSchedule. Construct
/// once per (schedule, thread budget) and run() once per training iteration.
class ScheduleExecutor {
 public:
  /// Verifies `schedule` (throws CheckError on any static violation),
  /// compiles it to per-device bytecode and statically re-verifies the
  /// program against the source (translation validation). `total_threads`
  /// is the machine width to partition across device threads; <= 0 uses the
  /// process ThreadPool's width.
  explicit ScheduleExecutor(PipelineSchedule schedule, int total_threads = 0);
  ~ScheduleExecutor();

  ScheduleExecutor(const ScheduleExecutor&) = delete;
  ScheduleExecutor& operator=(const ScheduleExecutor&) = delete;

  /// Execute `lanes`' projections of the schedule, each followed by
  /// `runner.end_lane`: one thread per lane, or the calling thread when
  /// there is only one. Every device is threaded mode; `{rank}` is lane
  /// mode, where each OS process drives one device and the transport's
  /// blocking recvs and collective rendezvous order it against the lanes of
  /// the other processes.
  ///
  /// Failure protocol: the first lane exception aborts the shared
  /// AbortToken (which the shm and tcp transports mirror to every peer
  /// process). That unblocks every peer wait (channel recvs, collective
  /// rendezvous, injected sleeps) within kAbortPollInterval, so all lanes
  /// end in well under a second instead of serializing comm timeouts. The
  /// originating exception is rethrown in preference to a silent kill and
  /// then to the peers' AbortedErrors. When every lane is local, a lane that
  /// dies silently (ThreadKilledFault) raises no abort; only the watchdog
  /// (enable_watchdog) can end such a run early. A lane with peers in other
  /// processes aborts on it like on any other failure.
  void run(OpRunner& runner, const std::vector<int>& lanes);

  /// Share the runtime's abort token (also wired into the trainer's channels
  /// and collectives). Without one, run() still aborts coordinately through
  /// a per-run private token — but only waits that share it can observe it.
  void set_abort_token(std::shared_ptr<AbortToken> token);
  [[nodiscard]] const std::shared_ptr<AbortToken>& abort_token() const { return abort_; }

  /// Install a deterministic fault plan; every op dispatch consults it.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  /// Install a NaN/Inf fence. The executor announces each op (device, label,
  /// microbatch) to the fence before dispatch so any tensor the runner hands
  /// to NanFence::check is attributed to the op that produced it. A null or
  /// inactive (level 0) fence adds zero work to the dispatch loop.
  void set_nan_fence(std::shared_ptr<guard::NanFence> fence);
  [[nodiscard]] const std::shared_ptr<guard::NanFence>& nan_fence() const { return fence_; }

  /// Run a stall watchdog during run(): per-op heartbeats, and on a stall
  /// past the deadline a diagnostic snapshot (current op per device + the
  /// comm snapshot) is attached to the abort.
  void enable_watchdog(WatchdogConfig config);

  /// Extra state renderer for watchdog reports (channel occupancy, queued
  /// tags, collective waiters) — supplied by the owner of those objects.
  void set_comm_snapshot(std::function<std::string()> snapshot);

  /// Per-peer connection-state probe for watchdog snapshots (tcp backend's
  /// link view); empty probe = no peer lines in snapshots.
  void set_peer_probe(std::function<std::vector<WatchdogPeerLink>()> probe);

  /// Report of the most recent run()'s watchdog firing (empty if none).
  [[nodiscard]] const std::string& last_watchdog_report() const { return watchdog_report_; }

  /// Replace the compiled program with `prog` (e.g. one loaded from disk).
  /// The program is statically re-verified against this executor's schedule
  /// and must dispatch the same per-device kernel sequences; throws
  /// CheckError otherwise. Subsequent runs execute it.
  void set_program(program::CompiledProgram prog);

  [[nodiscard]] const PipelineSchedule& schedule() const { return schedule_; }
  /// The compiled, verified bytecode artifact of schedule().
  [[nodiscard]] const program::CompiledProgram& program() const { return program_; }
  /// The common linearization's projection onto one device (op ids).
  [[nodiscard]] const std::vector<int>& device_sequence(int device) const;
  /// Stats of the most recent run().
  [[nodiscard]] const ExecutorStats& last_stats() const { return stats_; }
  /// Intra-op pool width given to each device thread (1 = serial).
  [[nodiscard]] int threads_per_device() const { return threads_per_device_; }

 private:
  struct Run;   // per-run token, watchdog and start time
  struct Lane;  // one lane's outcome

  /// Reset the stats, resolve the abort token and start the watchdog over
  /// `lanes` (the others belong to other processes and never heartbeat here).
  Run begin_run(const std::vector<Lane>& lanes);
  /// Stop the watchdog, keep its report and record the wall time up to the
  /// latest lane's last op.
  void end_run(Run& run, const std::vector<Lane>& lanes);
  /// The one lane body: walk `lane.device`'s compiled program, dispatching
  /// each CALL/COLL instruction's op to `runner`, then call end_lane; record
  /// the outcome in `lane`.
  void run_lane(OpRunner& runner, Run& run, bool all_local, Lane& lane);

  PipelineSchedule schedule_;
  program::CompiledProgram program_;        // compiled + statically verified
  std::vector<std::vector<int>> sequences_;  // per device, op ids in issue order
  std::vector<std::unique_ptr<parallel::ThreadPool>> pools_;  // per device; empty when serial
  int threads_per_device_ = 1;
  ExecutorStats stats_;
  std::shared_ptr<AbortToken> abort_;
  std::shared_ptr<FaultInjector> injector_;
  std::shared_ptr<guard::NanFence> fence_;
  std::function<std::string()> comm_snapshot_;
  std::function<std::vector<WatchdogPeerLink>()> peer_probe_;
  WatchdogConfig watchdog_config_;
  bool watchdog_enabled_ = false;
  std::string watchdog_report_;
};

}  // namespace vocab
