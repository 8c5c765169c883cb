#include "runtime/schedule_executor.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "program/compiler.h"
#include "program/program_verifier.h"

namespace vocab {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double ExecutorStats::idle_fraction(int device) const {
  if (wall_seconds <= 0.0) return 0.0;
  const double busy = compute_seconds[static_cast<std::size_t>(device)];
  return busy >= wall_seconds ? 0.0 : 1.0 - busy / wall_seconds;
}

ScheduleExecutor::ScheduleExecutor(PipelineSchedule schedule, int total_threads)
    : schedule_(std::move(schedule)) {
  // Lowering: the compiler verifies the schedule (precondition — the
  // projection only exists for the proven-acyclic condensed graph), derives
  // the common linearization and emits per-device bytecode. Translation
  // validation: the program verifier then re-decides every invariant on the
  // compiled artifact, with the source schedule for the dependency-
  // realization check — a compiler bug cannot reach run().
  program_ = program::compile_schedule(schedule_);
  program::verify_program_or_throw(program_, &schedule_);
  sequences_ = program::device_sequences(program_);

  // Partition the intra-op thread budget across the device threads.
  const int total = total_threads > 0 ? total_threads : parallel::num_threads();
  const int per_device = total / std::max(schedule_.num_devices, 1);
  if (per_device >= 2) {
    threads_per_device_ = per_device;
    for (int d = 0; d < schedule_.num_devices; ++d) {
      pools_.push_back(std::make_unique<parallel::ThreadPool>(per_device));
    }
  }
}

ScheduleExecutor::~ScheduleExecutor() = default;

const std::vector<int>& ScheduleExecutor::device_sequence(int device) const {
  VOCAB_CHECK(device >= 0 && device < schedule_.num_devices,
              "device " << device << " out of range");
  return sequences_[static_cast<std::size_t>(device)];
}

void ScheduleExecutor::set_abort_token(std::shared_ptr<AbortToken> token) {
  abort_ = std::move(token);
}

void ScheduleExecutor::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  injector_ = std::move(injector);
}

void ScheduleExecutor::set_nan_fence(std::shared_ptr<guard::NanFence> fence) {
  fence_ = std::move(fence);
}

void ScheduleExecutor::enable_watchdog(WatchdogConfig config) {
  watchdog_config_ = config;
  watchdog_enabled_ = true;
}

void ScheduleExecutor::set_comm_snapshot(std::function<std::string()> snapshot) {
  comm_snapshot_ = std::move(snapshot);
}

void ScheduleExecutor::set_peer_probe(std::function<std::vector<WatchdogPeerLink>()> probe) {
  peer_probe_ = std::move(probe);
}

void ScheduleExecutor::set_program(program::CompiledProgram prog) {
  program::verify_program_or_throw(prog, &schedule_);
  const std::vector<std::vector<int>> sequences = program::device_sequences(prog);
  VOCAB_CHECK(sequences == sequences_,
              "loaded program '" << prog.schedule_name
                                 << "' dispatches different per-device kernel sequences "
                                    "than the compiled schedule '"
                                 << schedule_.name << "'");
  program_ = std::move(prog);
}

struct ScheduleExecutor::Run {
  std::shared_ptr<AbortToken> token;
  std::unique_ptr<Watchdog> watchdog;
  Clock::time_point t0;
};

// Per-lane outcome of one run, ranked by the rethrow ladder in run().
struct ScheduleExecutor::Lane {
  enum class Outcome { kOk, kFailed, kKilled, kAborted };
  int device = 0;
  Outcome outcome = Outcome::kOk;
  std::exception_ptr error;
  double end_seconds = -1.0;  // since the run's start, at the lane's last op
};

ScheduleExecutor::Run ScheduleExecutor::begin_run(const std::vector<Lane>& lanes) {
  const int p = schedule_.num_devices;
  stats_.wall_seconds = 0.0;
  stats_.compute_seconds.assign(static_cast<std::size_t>(p), 0.0);
  watchdog_report_.clear();

  Run run;
  // A run over an already-aborted token would have every comm wait throw
  // immediately; the owner must rebuild (or reset) first.
  run.token = abort_ != nullptr ? abort_ : std::make_shared<AbortToken>();
  VOCAB_CHECK(!run.token->aborted(),
              "executor started on an aborted runtime: " << run.token->reason().what
                                                         << " — rebuild before retrying");
  if (watchdog_enabled_) {
    run.watchdog = std::make_unique<Watchdog>(
        p, watchdog_config_, run.token,
        [this](int device, int op_id) {
          const Op& op = schedule_.op(op_id);
          return "op '" + op.label + "' (id " + std::to_string(op_id) + ", " +
                 to_string(op.kind) + ") on device " + std::to_string(device);
        },
        comm_snapshot_);
    if (peer_probe_) run.watchdog->set_peer_probe(peer_probe_);
    // Lanes of other processes never heartbeat here; the local watchdog only
    // monitors the local lanes (peer death is the transport's heartbeat
    // monitor's job).
    std::vector<bool> local(static_cast<std::size_t>(p), false);
    for (const Lane& lane : lanes) local[static_cast<std::size_t>(lane.device)] = true;
    for (int d = 0; d < p; ++d) {
      if (!local[static_cast<std::size_t>(d)]) run.watchdog->mark_done(d);
    }
    run.watchdog->start();
  }
  run.t0 = Clock::now();
  return run;
}

void ScheduleExecutor::end_run(Run& run, const std::vector<Lane>& lanes) {
  if (run.watchdog != nullptr) {
    run.watchdog->stop();
    watchdog_report_ = run.watchdog->last_report();
  }
  for (const Lane& lane : lanes) {
    stats_.wall_seconds = std::max(stats_.wall_seconds, lane.end_seconds);
  }
}

void ScheduleExecutor::run_lane(OpRunner& runner, Run& run, bool all_local, Lane& lane) {
  const int device = lane.device;
  // Route this lane's parallel_for to its private pool slice (or force
  // serial when the machine is narrower than the pipeline).
  parallel::ScopedPool scope(
      pools_.empty() ? nullptr : pools_[static_cast<std::size_t>(device)].get());
  Watchdog* watchdog = run.watchdog.get();
  AbortToken& token = *run.token;
  double compute = 0.0;
  int current_op = -1;
  // Only the lane whose abort() wins is the originating failure; a losing
  // abort means this exception is secondary fallout (e.g. a
  // poisoned-communicator error raised after a peer already aborted).
  const auto fail = [&](const char* what) {
    lane.error = std::current_exception();
    lane.outcome = token.abort(AbortReason{device, current_op, what}) ? Lane::Outcome::kFailed
                                                                      : Lane::Outcome::kAborted;
    if (watchdog != nullptr) watchdog->mark_done(device);
  };
  try {
    for (const program::Instr& in : program_.lanes[static_cast<std::size_t>(device)]) {
      if (in.op == program::Opcode::kHalt) break;
      if (in.op != program::Opcode::kCall && in.op != program::Opcode::kColl) continue;
      // A COLL's op rendezvouses with its group inside the OpRunner
      // (DeviceGroup); the instruction only fixes this lane's issue position.
      current_op = in.op == program::Opcode::kCall ? in.a : in.b;
      const Op& op = schedule_.op(current_op);
      // Lanes busy computing (not blocked in a wait) still stop at the next
      // op boundary after a peer fails.
      token.throw_if_aborted("device " + std::to_string(device) + " before op '" + op.label +
                             "'");
      if (watchdog != nullptr) watchdog->heartbeat(device, op.id);
      if (injector_ != nullptr) injector_->on_op(device, op.id, op.label, &token);
      if (fence_ != nullptr && fence_->active()) {
        fence_->begin_op(device, op.label, op.microbatch);
      }
      if (op.stream == Stream::Compute) {
        const auto op_t0 = Clock::now();
        runner.run_op(op);
        compute += seconds_since(op_t0);
      } else {
        runner.run_op(op);
      }
    }
    lane.end_seconds = seconds_since(run.t0);
    if (watchdog != nullptr) watchdog->mark_done(device);
    current_op = -1;
    // A peer that already failed keeps this lane from stepping; one that
    // fails later in its tail cannot be seen here (see end_lane).
    token.throw_if_aborted("device " + std::to_string(device) + " before end_lane");
    runner.end_lane(device);
  } catch (const ThreadKilledFault& e) {
    if (all_local) {
      // Simulated silent thread death: no abort, no mark_done — the
      // watchdog must discover the stall from the missing heartbeats.
      lane.error = std::current_exception();
      lane.outcome = Lane::Outcome::kKilled;
    } else {
      // The peers live in other processes: the abort is what tells them.
      fail(e.what());
    }
  } catch (const AbortedError&) {
    lane.error = std::current_exception();
    lane.outcome = Lane::Outcome::kAborted;
    if (watchdog != nullptr) watchdog->mark_done(device);
  } catch (const std::exception& e) {
    fail(e.what());
  } catch (...) {
    fail("non-standard exception");
  }
  if (lane.end_seconds < 0.0) lane.end_seconds = seconds_since(run.t0);
  stats_.compute_seconds[static_cast<std::size_t>(device)] = compute;
}

void ScheduleExecutor::run(OpRunner& runner, const std::vector<int>& lanes) {
  const int p = schedule_.num_devices;
  VOCAB_CHECK(!lanes.empty(), "run needs at least one lane");
  std::vector<Lane> local(lanes.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    local[i].device = lanes[i];
    VOCAB_CHECK(local[i].device >= 0 && local[i].device < p,
                "lane device " << local[i].device << " out of range [0, " << p << ")");
  }
  const bool all_local = static_cast<int>(local.size()) == p;
  Run run = begin_run(local);

  if (local.size() == 1) {
    run_lane(runner, run, all_local, local[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(local.size());
    for (Lane& lane : local) {
      threads.emplace_back([&, l = &lane] { run_lane(runner, run, all_local, *l); });
    }
    for (auto& t : threads) t.join();
  }
  end_run(run, local);

  // Rethrow the originating failure, not a peer's secondary AbortedError.
  // Priority: a real op failure, then a silent kill, then the first abort
  // observation (e.g. all survivors of a watchdog-detected stall).
  for (const Lane::Outcome target :
       {Lane::Outcome::kFailed, Lane::Outcome::kKilled, Lane::Outcome::kAborted}) {
    for (const Lane& lane : local) {
      if (lane.outcome == target && lane.error != nullptr) std::rethrow_exception(lane.error);
    }
  }
}

}  // namespace vocab
