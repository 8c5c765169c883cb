#pragma once

// In-process thread-rendezvous transport backend (the default).
//
// This is the historical comm layer verbatim — a mutex/condition-variable
// bounded FIFO per mailbox and a rendezvous cell per collective — moved
// below the Transport interface so comm/Channel and comm/DeviceGroup can be
// facades over a pluggable backend. Numerics, blocking semantics, timeout
// slicing (kAbortPollInterval) and error texts are unchanged; the only
// addition is the transport diagnostic suffix on DeadlockError messages and
// describe() output (satellite of the failure-model work: a hang should name
// its backend).

#include <condition_variable>
#include <deque>
#include <mutex>

#include "transport/transport.h"

namespace vocab::transport {

/// Bounded blocking FIFO of Messages. Single producer / single consumer in
/// the pipeline runtime, but safe for multiple of either.
class ThreadMailbox final : public Mailbox {
 public:
  ThreadMailbox(std::size_t capacity, std::chrono::milliseconds timeout);

  void set_abort_token(std::shared_ptr<AbortToken> token) override;
  void send(std::string tag, Tensor payload) override;
  Message recv() override;
  Tensor recv_tag(const std::string& tag) override;
  void clear() override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  // Wait until `ready()` under `lock`, polling the abort token each slice.
  // `verb` + `tag` contextualize the DeadlockError / AbortedError.
  template <typename Ready>
  void wait_or_throw(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                     const char* verb, const std::string& tag, Ready&& ready);

  const std::size_t capacity_;
  const std::chrono::milliseconds timeout_;
  std::shared_ptr<AbortToken> abort_;
  mutable std::mutex mutex_;
  std::condition_variable cv_send_;
  std::condition_variable cv_recv_;
  std::deque<Message> queue_;
};

/// Rendezvous collective communicator over `world_size` participant threads.
class ThreadCollective final : public Collective {
 public:
  ThreadCollective(int world_size, std::chrono::milliseconds timeout);

  [[nodiscard]] int world_size() const override { return world_size_; }
  void set_abort_token(std::shared_ptr<AbortToken> token) override;
  void barrier(int rank, const std::string& tag) override;
  void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) override;
  void broadcast(int rank, int root, Tensor& data, const std::string& tag) override;
  [[nodiscard]] std::uint64_t completed_collectives() const override;
  [[nodiscard]] std::vector<int> waiting_ranks() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  // Runs `leader_fn` on the last-arriving rank, between the arrival phase and
  // the departure phase. Throws DeadlockError on timeout, AbortedError when
  // the shared token aborts, CheckError on tag or shape mismatch detected at
  // rendezvous.
  template <typename LeaderFn>
  void rendezvous(int rank, const std::string& tag, const char* kind, LeaderFn&& leader_fn);

  void check_rank(int rank) const;

  const int world_size_;
  const std::chrono::milliseconds timeout_;
  std::shared_ptr<AbortToken> abort_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Tensor*> slots_;  ///< each rank's in/out buffer for the leader
  std::vector<std::string> tags_;
  std::vector<bool> waiting_;
  int arrived_ = 0;
  int departed_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t completed_ = 0;
  std::string failure_;  // non-empty once a rendezvous has failed
};

/// Factory for the thread backend.
class ThreadTransport final : public Transport {
 public:
  [[nodiscard]] TransportKind kind() const override { return TransportKind::kThreads; }
  [[nodiscard]] const char* name() const override { return "threads"; }
  [[nodiscard]] std::unique_ptr<Mailbox> make_mailbox(
      std::size_t capacity, std::chrono::milliseconds timeout) override;
  [[nodiscard]] std::unique_ptr<Collective> make_collective(
      int world_size, std::chrono::milliseconds timeout) override;
};

}  // namespace vocab::transport
