#pragma once

// TCP transport backend: framed, CRC32-checked, sequence-numbered messages
// over loopback/LAN sockets. Two modes of the same wire format:
//
//   in-process  (TcpTransport::in_process) — every make_mailbox owns a real
//     connected loopback socket pair, and every make_collective one such
//     mailbox per rank as that rank's collective inbox. No supervisor, no
//     heartbeats (nothing can die); this is what VOCAB_TRANSPORT=tcp selects
//     for an ordinary PipelineTrainer, and its collectives reduce in the
//     exact rank order the threads backend uses, so losses and weights are
//     bit-identical across backends.
//
//   attached    (TcpTransport::attach) — one forked OS process per rank, a
//     TcpSupervisor maintaining a supervised full-mesh of connections
//     (reconnect with bounded backoff, in-band heartbeats + cumulative acks,
//     outbox retransmission, chaos injection), and the pre-fork ShmArena
//     reused only as the control plane: abort block, rank liveness flags,
//     progress block, and tcp port advertisement. Mailbox i is owned by rank
//     i (the trainer creates one inbox per device in rank order); mailbox
//     `world` is each rank's collective inbox.
//
// Both modes run one leader-driven collective over ordinary data messages:
// each rank posts a tagged join to rank 0's collective inbox, and rank 0
// checks the joins agree, computes, and posts every peer the result.
//
// Failure semantics in attached mode: a peer silent past
// VOCAB_HEARTBEAT_TIMEOUT_MS, or unreachable past the reconnect budget, is
// declared dead — blocked waits on the declaring rank throw PeerDeadError
// (worker exit code 5) while the mirrored arena abort unwinds the bystanders
// with AbortedError (exit 3), which is exactly the signal the elastic
// coordinator needs to downgrade the pipeline width.

#include <memory>

#include "fault/fault_injector.h"
#include "transport/shm_region.h"
#include "transport/tcp_supervisor.h"
#include "transport/transport.h"

namespace vocab::transport {

class TcpTransport final : public Transport {
 public:
  /// Loopback-socket-pair mode: no arena, no supervisor, no heartbeats. Used
  /// by the VOCAB_TRANSPORT=tcp singleton.
  [[nodiscard]] static TcpTransport in_process();
  /// Bind to `arena` as `self_rank`, start the connection supervisor, and
  /// block until the full mesh is connected. `injector` (may be null) drives
  /// the deterministic network-chaos layer. The arena must outlive the
  /// transport.
  [[nodiscard]] static std::unique_ptr<TcpTransport> attach(
      ShmArena& arena, int self_rank, TransportConfig config,
      std::shared_ptr<FaultInjector> injector = nullptr);
  ~TcpTransport() override = default;
  TcpTransport(TcpTransport&&) noexcept = default;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] TransportKind kind() const override { return TransportKind::kTcp; }
  [[nodiscard]] const char* name() const override { return "tcp"; }
  [[nodiscard]] std::unique_ptr<Mailbox> make_mailbox(
      std::size_t capacity, std::chrono::milliseconds timeout) override;
  [[nodiscard]] std::unique_ptr<Collective> make_collective(
      int world_size, std::chrono::milliseconds timeout) override;
  [[nodiscard]] long long heartbeat_age_ms(int rank) const override;
  [[nodiscard]] std::vector<PeerStatus> peer_status() const override;

  /// Fault-injection hook: while `fn` returns true the supervisor stops
  /// stamping the arena heartbeat AND stops sending in-band heartbeats.
  void set_heartbeat_suppressed(std::function<bool()> fn);
  /// Token the supervisor mirrors into/out of the arena abort block.
  void set_abort_token(std::shared_ptr<AbortToken> token);
  /// Mark this rank cleanly finished (peers see EOF as "done", not death).
  void mark_done();

  /// Attached mode's supervisor (null in in-process mode) — the elastic
  /// worker consults dead_peer() to classify its own unwind.
  [[nodiscard]] TcpSupervisor* supervisor() const { return supervisor_.get(); }

 private:
  TcpTransport() = default;
  TcpTransport(ShmArena& arena, int self_rank, TransportConfig config,
               std::shared_ptr<FaultInjector> injector);

  TransportConfig config_ = {};
  int self_ = -1;
  std::unique_ptr<TcpSupervisor> supervisor_;  ///< attached mode only
  std::uint32_t next_mailbox_ = 0;
  bool collective_taken_ = false;
};

}  // namespace vocab::transport
