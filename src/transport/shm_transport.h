#pragma once

// Shared-memory multi-process transport backend.
//
// Two modes of the same machinery:
//
//   in-process  (ShmTransport::in_process) — every make_mailbox /
//     make_collective owns a private anonymous shared mapping. No fork, no
//     heartbeats; this is what VOCAB_TRANSPORT=shm selects for an ordinary
//     PipelineTrainer and it must be loss-bit-identical to the threads
//     backend (the reduce order and float ops are the same code).
//
//   attached    (ShmTransport::attach) — the transport binds to a pre-fork
//     ShmArena as one rank of a worker group. make_collective consumes the
//     arena's single collective region; make_mailbox consumes ring i on the
//     i-th call — deterministic because every worker builds the identical
//     trainer in the identical order. A beacon/monitor thread stamps this
//     rank's heartbeat, mirrors the local AbortToken into the arena abort
//     block (and back), and declares a silent peer dead after the configured
//     heartbeat timeout, converting real process death into the same
//     coordinated abort the in-process fault machinery already uses.
//
// Blocking waits have no condition variables (a pthread object in shared
// memory could be left locked by a SIGKILL'd peer): they poll through
// PollWait and park on the region's futex doorbell (shm_region.h). A writer
// rings its ring's bell after publishing a record, the reader after freeing
// space, and the collective on every generation bump, last departure and
// failure, so a waiter wakes as soon as its data lands. Each park is bounded
// by kAbortPollInterval, so every lap still re-checks the local token, the
// arena abort block, peer death and the deadline at that cadence.

#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "transport/shm_region.h"
#include "transport/transport.h"

namespace vocab::transport {

/// Shared failure-detection state a mailbox/collective consults while
/// blocked. All pointers null in in-process mode (no peers to die).
struct ShmPeerView {
  ShmAbortBlock* abort = nullptr;
  ShmRankState* ranks = nullptr;
  int world = 0;
  int self = -1;

  [[nodiscard]] bool attached() const { return abort != nullptr; }
  /// Index of a rank flagged dead, or -1.
  [[nodiscard]] int dead_rank() const;
  /// ms since `rank` last stamped its heartbeat, or -1 if never/unavailable.
  [[nodiscard]] long long heartbeat_age_ms(int rank) const;
  /// ", transport 'shm' ..." diagnostic suffix for DeadlockError texts.
  [[nodiscard]] std::string diag_suffix() const;
};

/// Bounded tag-addressed mailbox over a shared ring buffer. Writers serialize
/// records under the ring spinlock; the (single) reader eagerly drains the
/// ring into a process-local pending queue so recv_tag can deliver out of
/// order, while the shared `occupancy` counter keeps Channel's bounded
/// backpressure semantics (a drained-but-undelivered message still counts).
class ShmMailbox final : public Mailbox {
 public:
  ShmMailbox(std::size_t capacity, std::chrono::milliseconds timeout, TransportConfig config,
             ShmRingView ring, ShmPeerView peers, std::unique_ptr<ShmMapping> owned_region);

  void set_abort_token(std::shared_ptr<AbortToken> token) override;
  void send(std::string tag, Tensor payload) override;
  Message recv() override;
  Tensor recv_tag(const std::string& tag) override;
  void clear() override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  /// Move every complete record currently in the ring into pending_, rewind
  /// the ring when that leaves it empty, and ring the doorbell for writers.
  void drain_ring() const;
  /// Count `count` pending messages as handed out; wakes a sender parked on
  /// a full mailbox.
  void delivered(std::int64_t count) const;
  /// Poll `ready` through PollWait, parking on the ring's doorbell and adding
  /// the arena abort and (past the retry budget) dead-peer checks to every
  /// lap.
  template <typename Ready>
  void wait(const char* verb, const std::string& tag, Ready&& ready) const;
  [[nodiscard]] std::string describe_locked() const;

  const std::size_t capacity_;
  const std::chrono::milliseconds timeout_;
  const TransportConfig config_;
  ShmRingView ring_;
  ShmPeerView peers_;
  std::unique_ptr<ShmMapping> owned_region_;  ///< in-process mode only

  mutable std::mutex mutex_;  ///< guards pending_ and reader-side ring state
  mutable std::deque<Message> pending_;
  std::shared_ptr<AbortToken> abort_;
};

/// Rendezvous collective over a shared collective region. The protocol and
/// the leader-side reduce order mirror ThreadCollective exactly (slot 0 is
/// the accumulator, ranks 1..n-1 reduced in order) so results are
/// bit-identical across backends.
class ShmCollective final : public Collective {
 public:
  ShmCollective(int world_size, std::chrono::milliseconds timeout, ShmCollectiveView view,
                ShmPeerView peers, std::unique_ptr<ShmMapping> owned_region);

  [[nodiscard]] int world_size() const override { return world_; }
  void set_abort_token(std::shared_ptr<AbortToken> token) override;
  void barrier(int rank, const std::string& tag) override;
  void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) override;
  void broadcast(int rank, int root, Tensor& data, const std::string& tag) override;
  [[nodiscard]] std::uint64_t completed_collectives() const override;
  [[nodiscard]] std::vector<int> waiting_ranks() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  void check_rank(int rank) const;
  /// Full rendezvous: join, publish `input` into slot[rank], leader runs
  /// `leader_fn` (deserialize slots -> compute -> serialize into result
  /// area), every rank then runs `deliver_fn` on the result area.
  void rendezvous(int rank, const std::string& tag, const char* kind, const Tensor* input,
                  const std::function<void()>& leader_fn,
                  const std::function<void(const std::byte*)>& deliver_fn);

  const int world_;
  const std::chrono::milliseconds timeout_;
  ShmCollectiveView view_;
  ShmPeerView peers_;
  std::unique_ptr<ShmMapping> owned_region_;  ///< in-process mode only

  mutable std::mutex mutex_;  ///< guards abort_ only (shared state is atomic)
  std::shared_ptr<AbortToken> abort_;
};

/// Factory + liveness beacon for the shared-memory backend.
class ShmTransport final : public Transport {
 public:
  /// Private-region mode: no arena, no heartbeats. Used by the
  /// VOCAB_TRANSPORT=shm singleton.
  [[nodiscard]] static ShmTransport in_process();
  /// Bind to `arena` as `self_rank` and start the beacon/monitor thread.
  /// The arena must outlive the transport.
  [[nodiscard]] static std::unique_ptr<ShmTransport> attach(ShmArena& arena, int self_rank,
                                                            TransportConfig config);
  ~ShmTransport() override;
  ShmTransport(ShmTransport&&) noexcept;
  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  [[nodiscard]] TransportKind kind() const override { return TransportKind::kShm; }
  [[nodiscard]] const char* name() const override { return "shm"; }
  [[nodiscard]] std::unique_ptr<Mailbox> make_mailbox(
      std::size_t capacity, std::chrono::milliseconds timeout) override;
  [[nodiscard]] std::unique_ptr<Collective> make_collective(
      int world_size, std::chrono::milliseconds timeout) override;
  [[nodiscard]] long long heartbeat_age_ms(int rank) const override;

  /// Fault-injection hook: while `fn` returns true the beacon stops stamping
  /// this rank's heartbeat (simulates a live-but-silent peer).
  void set_heartbeat_suppressed(std::function<bool()> fn);
  /// Token the beacon mirrors into/out of the arena abort block. Channels
  /// and groups check the arena directly, but mirroring lets compute ops
  /// (which poll only the local token) stop promptly too.
  void set_abort_token(std::shared_ptr<AbortToken> token);
  /// Mark this rank cleanly finished (suppresses dead-peer detection on it).
  void mark_done();

 private:
  ShmTransport() = default;
  ShmTransport(ShmArena* arena, int self_rank, TransportConfig config);
  [[nodiscard]] ShmPeerView attached_peers() const;
  void beacon_loop();

  ShmArena* arena_ = nullptr;  ///< null in in-process mode
  int self_rank_ = -1;
  TransportConfig config_ = {};
  std::size_t next_ring_ = 0;
  bool collective_taken_ = false;

  mutable std::mutex mutex_;
  std::function<bool()> suppressed_;
  std::shared_ptr<AbortToken> token_;
  std::atomic<bool> stop_{false};
  std::thread beacon_;
};

}  // namespace vocab::transport
