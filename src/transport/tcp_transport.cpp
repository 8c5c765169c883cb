#include "transport/tcp_transport.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <sstream>

#include "common/error.h"
#include "transport/backend_common.h"

namespace vocab::transport {

namespace {

// Collective op codes, carried in a join's tag.
constexpr std::uint32_t kOpBarrier = 0;
constexpr std::uint32_t kOpAllReduceSum = 1;
constexpr std::uint32_t kOpAllReduceMax = 2;
constexpr std::uint32_t kOpBroadcast = 5;

/// Leader-side collective body. `contrib(r)` is rank r's input tensor. The
/// reduce order — rank 0's tensor is the accumulator, ranks 1..n-1 folded in
/// ascending order — is the exact order the threads and shm backends use,
/// which is what makes losses and weights bit-identical across all three.
Tensor leader_compute(std::uint32_t op, std::uint32_t root, int world,
                      const std::function<const Tensor&(int)>& contrib) {
  switch (op) {
    case kOpBarrier:
      return Tensor{};
    case kOpAllReduceSum:
    case kOpAllReduceMax: {
      Tensor acc = contrib(0);
      const ReduceOp rop = op == kOpAllReduceMax ? ReduceOp::Max : ReduceOp::Sum;
      for (int r = 1; r < world; ++r) reduce_into(acc, contrib(r), rop);
      return acc;
    }
    case kOpBroadcast:
      return contrib(static_cast<int>(root));
    default:
      VOCAB_FAIL("unknown collective op code " << op);
  }
}

// Backoff jitter seed of a rank's waits, so concurrent ranks decorrelate.
std::uint64_t rank_seed(int rank) {
  return static_cast<std::uint64_t>(rank + 2) * 0x9e3779b97f4a7c15ULL;
}

const char* op_kind_name(std::uint32_t op) {
  switch (op) {
    case kOpBarrier: return "barrier";
    case kOpAllReduceSum:
    case kOpAllReduceMax: return "all_reduce";
    case kOpBroadcast: return "broadcast";
    default: return "collective";
  }
}

// ---------------------------------------------------------------------------
// In-process loopback mailbox
// ---------------------------------------------------------------------------
// One real connected loopback socket pair per Channel (and per rank of an
// in-process collective, as that rank's collective inbox). The sender encodes
// kData frames into a write buffer and both sides pump (flush + drain) under
// the shared mutex, so a blocked reader keeps the sender's bytes moving. The
// channel capacity bound lives in a local occupancy counter, exactly like the
// shm ring's: accepted-at-send, released-at-delivery.

class TcpLoopbackMailbox final : public Mailbox {
 public:
  TcpLoopbackMailbox(std::size_t capacity, std::chrono::milliseconds timeout,
                     TransportConfig config)
      : capacity_(capacity),
        timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
        config_(config) {
    VOCAB_CHECK(capacity > 0, "channel capacity must be positive");
    int fds[2] = {-1, -1};
    VOCAB_CHECK(tcp_loopback_pair(fds),
                "tcp transport unavailable: loopback sockets failed on this platform");
    writer_fd_ = fds[0];
    reader_fd_ = fds[1];
  }

  ~TcpLoopbackMailbox() override {
    close_fd(&writer_fd_);
    close_fd(&reader_fd_);
  }

  void set_abort_token(std::shared_ptr<AbortToken> token) override {
    std::lock_guard lock(mutex_);
    abort_ = std::move(token);
  }

  void send(std::string tag, Tensor payload) override {
    PayloadWriter writer;
    writer.u32(0);  // mailbox id — unused on a dedicated pair
    writer.str(tag);
    writer.tensor(payload);
    Frame frame;
    frame.kind = FrameKind::kData;
    frame.payload = writer.take();
    wait("send (full)", tag, [&] {
      std::lock_guard lock(mutex_);
      pump_locked();
      if (occupancy_ >= static_cast<std::int64_t>(capacity_)) return false;
      ++occupancy_;
      frame.seq = ++seq_out_;
      encode_frame(frame, &wbuf_);
      pump_locked();
      return true;
    });
  }

  Message recv() override {
    Message msg;
    wait("recv (empty)", "<front>",
         [&] { return take_if([](const Message&) { return true; }, &msg); });
    return msg;
  }

  Tensor recv_tag(const std::string& tag) override {
    Message msg;
    wait("recv", tag,
         [&] { return take_if([&](const Message& m) { return m.tag == tag; }, &msg); });
    return std::move(msg.payload);
  }

  /// Move the first queued message `match` accepts into *out; false when
  /// none is queued yet. Never blocks.
  bool take_if(const std::function<bool(const Message&)>& match, Message* out) {
    std::lock_guard lock(mutex_);
    pump_locked();
    const auto it = std::find_if(pending_.begin(), pending_.end(), match);
    if (it == pending_.end()) return false;
    *out = std::move(*it);
    pending_.erase(it);
    --occupancy_;
    return true;
  }

  void clear() override {
    std::lock_guard lock(mutex_);
    pump_locked();
    occupancy_ -= static_cast<std::int64_t>(pending_.size());
    pending_.clear();
  }

  [[nodiscard]] std::size_t size() const override {
    std::lock_guard lock(mutex_);
    return occupancy_ > 0 ? static_cast<std::size_t>(occupancy_) : 0;
  }

  [[nodiscard]] std::string describe() const override {
    std::lock_guard lock(mutex_);
    const_cast<TcpLoopbackMailbox*>(this)->pump_locked();
    return describe_queue(pending_, capacity_) + ", transport 'tcp' (loopback)";
  }

 private:
  /// Flush what the socket accepts, drain what it holds, decode into pending_.
  void pump_locked() {
    while (!wbuf_.empty()) {
      const ssize_t n = ::send(writer_fd_, wbuf_.data(), wbuf_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        wbuf_.erase(wbuf_.begin(), wbuf_.begin() + n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      VOCAB_FAIL("tcp loopback mailbox write failed: " << std::strerror(errno));
    }
    VOCAB_CHECK(tcp_read_available(reader_fd_, &inbuf_),
                "tcp loopback mailbox socket closed unexpectedly");
    std::size_t offset = 0;
    for (;;) {
      Frame frame;
      std::size_t consumed = 0;
      std::string error;
      const DecodeStatus status = decode_frame(inbuf_.data() + offset, inbuf_.size() - offset,
                                               &frame, &consumed, &error);
      if (status == DecodeStatus::kNeedMore) break;
      VOCAB_CHECK(status == DecodeStatus::kFrame, "tcp loopback stream corrupt: " << error);
      VOCAB_CHECK(frame.kind == FrameKind::kData,
                  "tcp loopback mailbox got a " << frame_kind_name(frame.kind) << " frame");
      offset += consumed;
      PayloadReader reader(frame.payload);
      (void)reader.u32();  // mailbox id
      Message msg;
      msg.tag = reader.str();
      msg.payload = reader.tensor();
      pending_.push_back(std::move(msg));
    }
    inbuf_.erase(inbuf_.begin(), inbuf_.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  template <typename Ready>
  void wait(const char* verb, const std::string& tag, Ready&& ready) {
    PollWait poll(timeout_, locked_copy(mutex_, abort_),
                  {.interrupted = [&] { return channel_interrupted(verb, tag); },
                   .expired =
                       [&](long long elapsed_ms) {
                         std::string occupancy;
                         {
                           std::lock_guard lock(mutex_);
                           occupancy = describe_queue(pending_, capacity_);
                         }
                         return DeadlockError(channel_timed_out(verb, tag, elapsed_ms, timeout_) +
                                              occupancy + ", transport 'tcp' (loopback)");
                       },
                   .park = backoff_park(config_, 0x9e3779b97f4a7c15ULL * 3)});
    poll.until(ready);
  }

  const std::size_t capacity_;
  const std::chrono::milliseconds timeout_;
  const TransportConfig config_;
  int writer_fd_ = -1;
  int reader_fd_ = -1;

  mutable std::mutex mutex_;
  std::vector<std::byte> wbuf_;
  std::vector<std::byte> inbuf_;
  std::deque<Message> pending_;
  std::int64_t occupancy_ = 0;
  std::uint64_t seq_out_ = 0;
  std::shared_ptr<AbortToken> abort_;
};

// ---------------------------------------------------------------------------
// Attached (mesh) mailbox
// ---------------------------------------------------------------------------
// Mailbox i is rank i's inbox: the trainer creates one Channel per device in
// rank order (the same deterministic construction order the shm arena relies
// on), so senders address frames to rank == mailbox id and only the owner
// recvs. Reliability and backpressure live in the supervisor's outbox/ack
// protocol; waits drive supervisor I/O via pump() so latency is not bounded
// by the supervisor thread's cadence.

class TcpMeshMailbox final : public Mailbox {
 public:
  TcpMeshMailbox(std::uint32_t id, std::size_t capacity, std::chrono::milliseconds timeout,
                 TransportConfig config, TcpSupervisor* supervisor)
      : id_(id),
        owner_(static_cast<int>(id)),
        capacity_(capacity),
        timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
        config_(config),
        supervisor_(supervisor) {
    VOCAB_CHECK(capacity > 0, "channel capacity must be positive");
  }

  void set_abort_token(std::shared_ptr<AbortToken> token) override {
    std::lock_guard lock(mutex_);
    abort_ = std::move(token);
  }

  void send(std::string tag, Tensor payload) override {
    supervisor_->throw_if_failed("channel send", tag);
    if (owner_ == supervisor_->self()) {
      supervisor_->enqueue_local(id_, std::move(tag), std::move(payload));
      return;
    }
    supervisor_->send_data(owner_, id_, tag, payload);
  }

  Message recv() override {
    check_owner("recv");
    Message msg;
    wait("recv (empty)", "<front>", [&] {
      supervisor_->pump();
      return supervisor_->try_pop_if(id_, [](const Message&) { return true; }, &msg);
    });
    return msg;
  }

  Tensor recv_tag(const std::string& tag) override {
    check_owner("recv_tag");
    Message msg;
    wait("recv", tag, [&] {
      supervisor_->pump();
      return supervisor_->try_pop_if(id_, [&](const Message& m) { return m.tag == tag; }, &msg);
    });
    return std::move(msg.payload);
  }

  void clear() override {
    supervisor_->pump();
    supervisor_->clear_mailbox(id_);
  }

  [[nodiscard]] std::size_t size() const override { return supervisor_->mailbox_size(id_); }

  [[nodiscard]] std::string describe() const override {
    return supervisor_->describe_mailbox(id_, capacity_) + supervisor_->diag_suffix();
  }

 private:
  void check_owner(const char* verb) const {
    VOCAB_CHECK(owner_ == supervisor_->self(),
                "tcp mesh mailbox " << id_ << " " << verb << " on rank " << supervisor_->self()
                                    << " but the mailbox is rank " << owner_
                                    << "'s inbox — trainer construction order must assign "
                                       "mailbox i to device i");
  }

  template <typename Ready>
  void wait(const char* verb, const std::string& tag, Ready&& ready) {
    // Dead-peer first (PeerDeadError → worker exit 5), then abort, then the
    // local token, then the deadline.
    PollWait poll(
        timeout_, locked_copy(mutex_, abort_),
        {.precheck =
             [&] { supervisor_->throw_if_failed((std::string("channel ") + verb).c_str(), tag); },
         .interrupted = [&] { return channel_interrupted(verb, tag); },
         .expired =
             [&](long long elapsed_ms) {
               return DeadlockError(channel_timed_out(verb, tag, elapsed_ms, timeout_) +
                                    supervisor_->describe_mailbox(id_, capacity_) +
                                    supervisor_->diag_suffix());
             },
         .park = backoff_park(config_, rank_seed(supervisor_->self()))});
    poll.until(ready);
  }

  const std::uint32_t id_;
  const int owner_;
  const std::size_t capacity_;
  const std::chrono::milliseconds timeout_;
  const TransportConfig config_;
  TcpSupervisor* supervisor_;

  mutable std::mutex mutex_;
  std::shared_ptr<AbortToken> abort_;
};

// ---------------------------------------------------------------------------
// Collective (both modes)
// ---------------------------------------------------------------------------
// Leader-driven over ordinary data messages. Rank r >= 1 posts a join tagged
// "coll:<index>:<r>:<op>:<root>:<tag>" to rank 0's collective inbox and waits
// in its own inbox for "coll:<index>:result". Rank 0 takes one join per peer
// by its "coll:<index>:<r>:" prefix, checks that op, root and tag agree,
// computes via leader_compute and posts every peer the result. The index in
// the tag keeps a late join from being taken as the next collective's join.
// In-process, the collective owns one loopback mailbox per rank; attached,
// each rank's collective inbox is supervisor mailbox `world`, one past the
// trainer's per-device inboxes. Failure poisoning mirrors the threads
// backend: first failure wins, every later entry throws "communicator
// poisoned", concurrent waiters throw "collective aborted".

class TcpCollective final : public Collective {
 public:
  /// `supervisor` is null in in-process mode.
  TcpCollective(int world_size, std::chrono::milliseconds timeout, TransportConfig config,
                TcpSupervisor* supervisor)
      : world_(world_size),
        timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
        config_(config),
        supervisor_(supervisor),
        calls_(static_cast<std::size_t>(world_size), 0),
        waiting_(static_cast<std::size_t>(world_size), 0),
        tags_(static_cast<std::size_t>(world_size)) {
    VOCAB_CHECK(world_size >= 1, "world_size must be >= 1, got " << world_size);
    if (supervisor_ != nullptr || world_ == 1) return;
    // An inbox holds at most world - 1 joins or one result, so posts never wait.
    for (int r = 0; r < world_; ++r) {
      inboxes_.push_back(std::make_unique<TcpLoopbackMailbox>(static_cast<std::size_t>(world_),
                                                              timeout_, config_));
    }
  }

  [[nodiscard]] int world_size() const override { return world_; }

  void set_abort_token(std::shared_ptr<AbortToken> token) override {
    std::lock_guard lock(state_mutex_);
    abort_ = std::move(token);
  }

  void barrier(int rank, const std::string& tag) override {
    (void)execute(rank, kOpBarrier, 0, tag, Tensor{});
  }

  void all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) override {
    data = execute(rank, op == ReduceOp::Sum ? kOpAllReduceSum : kOpAllReduceMax, 0, tag, data);
  }

  void broadcast(int rank, int root, Tensor& data, const std::string& tag) override {
    check_rank(root);
    data = execute(rank, kOpBroadcast, static_cast<std::uint32_t>(root), tag, data);
  }

  [[nodiscard]] std::uint64_t completed_collectives() const override {
    std::lock_guard lock(state_mutex_);
    return completed_;
  }

  [[nodiscard]] std::vector<int> waiting_ranks() const override {
    std::lock_guard lock(state_mutex_);
    std::vector<int> out;
    for (int r = 0; r < world_; ++r) {
      if (waiting_[static_cast<std::size_t>(r)] != 0) out.push_back(r);
    }
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    std::lock_guard lock(state_mutex_);
    std::ostringstream os;
    os << "completed " << completed_ << ", waiters [";
    bool first = true;
    for (int r = 0; r < world_; ++r) {
      if (waiting_[static_cast<std::size_t>(r)] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "r" << r << ":'" << tags_[static_cast<std::size_t>(r)] << "'";
    }
    os << "]";
    if (!failure_.empty()) os << ", failure: " << failure_;
    return os.str() + suffix();
  }

 private:
  void check_rank(int rank) const {
    VOCAB_CHECK(rank >= 0 && rank < world_,
                "rank " << rank << " out of range [0, " << world_ << ")");
  }

  /// Diagnostics tail: the supervisor's link view, or the loopback marker.
  [[nodiscard]] std::string suffix() const {
    return supervisor_ != nullptr ? supervisor_->diag_suffix() : ", transport 'tcp' (loopback)";
  }

  void record_failure(const std::string& text) {
    std::lock_guard lock(state_mutex_);
    if (failure_.empty()) failure_ = text;
  }

  /// Deliver a tagged tensor to rank `to`'s collective inbox.
  void post(int to, const std::string& tag, const Tensor& t) {
    if (supervisor_ == nullptr) {
      inboxes_[static_cast<std::size_t>(to)]->send(tag, t);
    } else {
      supervisor_->send_data(to, static_cast<std::uint32_t>(world_), tag, t);
    }
  }

  /// Take the first message in rank `rank`'s collective inbox that `match`
  /// accepts; false when there is none yet.
  bool take(int rank, const std::function<bool(const Message&)>& match, Message* out) {
    if (supervisor_ == nullptr) {
      return inboxes_[static_cast<std::size_t>(rank)]->take_if(match, out);
    }
    supervisor_->pump();
    return supervisor_->try_pop_if(static_cast<std::uint32_t>(world_), match, out);
  }

  Tensor execute(int rank, std::uint32_t op, std::uint32_t root, const std::string& tag,
                 const Tensor& input) {
    check_rank(rank);
    VOCAB_CHECK(supervisor_ == nullptr || rank == supervisor_->self(),
                "tcp collective called with rank " << rank << " on rank " << supervisor_->self());
    const char* kind = op_kind_name(op);
    if (world_ == 1) {
      Tensor result = leader_compute(op, root, 1, [&](int) -> const Tensor& { return input; });
      std::lock_guard lock(state_mutex_);
      completed_ = ++calls_[0];
      return result;
    }
    std::shared_ptr<AbortToken> token;
    {
      std::lock_guard lock(state_mutex_);
      if (!failure_.empty()) throw DeadlockError("communicator poisoned: " + failure_);
      waiting_[static_cast<std::size_t>(rank)] = 1;
      tags_[static_cast<std::size_t>(rank)] = tag;
      token = abort_;
    }
    // One wait for the whole collective: the post, every join and the reply
    // share its deadline and backoff.
    PollWait wait(
        timeout_, std::move(token),
        {.precheck =
             [&] {
               if (supervisor_ != nullptr) supervisor_->throw_if_failed(kind, tag);
               std::string failure;
               {
                 std::lock_guard lock(state_mutex_);
                 failure = failure_;
               }
               if (!failure.empty()) throw DeadlockError("collective aborted: " + failure);
             },
         .on_abort = [&] { record_failure(collective_aborted(kind, tag)); },
         .interrupted = [&] { return collective_interrupted(kind, tag, rank); },
         .expired =
             [&](long long elapsed_ms) {
               std::string text =
                   collective_timed_out(rank, kind, tag, elapsed_ms, timeout_) + ")" + suffix();
               record_failure(text);
               return DeadlockError(text);
             },
         .park = backoff_park(config_, rank_seed(rank))});
    const std::uint64_t index = calls_[static_cast<std::size_t>(rank)]++;
    const std::string head = "coll:" + std::to_string(index) + ":";
    const std::string body = std::to_string(op) + ":" + std::to_string(root) + ":" + tag;
    Tensor result;
    try {
      if (supervisor_ != nullptr) supervisor_->throw_if_failed(kind, tag);
      if (rank == 0) {
        result = lead(head, body, op, root, tag, kind, input, wait);
      } else {
        post(0, head + std::to_string(rank) + ":" + body, input);
        Message reply;
        const std::string result_tag = head + "result";
        wait.until([&] {
          return take(rank, [&](const Message& m) { return m.tag == result_tag; }, &reply);
        });
        result = std::move(reply.payload);
      }
    } catch (...) {
      std::lock_guard lock(state_mutex_);
      waiting_[static_cast<std::size_t>(rank)] = 0;
      throw;
    }
    std::lock_guard lock(state_mutex_);
    waiting_[static_cast<std::size_t>(rank)] = 0;
    completed_ = std::max(completed_, index + 1);
    return result;
  }

  /// Rank 0's side: one join per peer, the shared leader body, the fan-out.
  /// `body` is "<op>:<root>:<tag>", the part every join must agree on.
  Tensor lead(const std::string& head, const std::string& body, std::uint32_t op,
              std::uint32_t root, const std::string& tag, const char* kind, const Tensor& input,
              PollWait& wait) {
    std::vector<Tensor> joins(static_cast<std::size_t>(world_));
    for (int r = 1; r < world_; ++r) {
      const std::string prefix = head + std::to_string(r) + ":";
      const auto has_prefix = [&](const Message& m) {
        return m.tag.compare(0, prefix.size(), prefix) == 0;
      };
      Message join;
      wait.until([&] { return take(0, has_prefix, &join); });
      const std::string got = join.tag.substr(prefix.size());
      if (got != body) {
        // got is "<op>:<root>:<tag>"; op and root are digits.
        const std::size_t op_end = got.find(':');
        const std::size_t root_end =
            op_end == std::string::npos ? op_end : got.find(':', op_end + 1);
        const std::string got_tag =
            root_end == std::string::npos ? got : got.substr(root_end + 1);
        const std::string text = std::string("collective mismatch in ") + kind + ": rank 0 tag '" +
                                 tag + "' vs rank " + std::to_string(r) + " tag '" + got_tag + "'";
        record_failure(text);
        throw CheckError(text);
      }
      joins[static_cast<std::size_t>(r)] = std::move(join.payload);
    }

    Tensor result;
    try {
      result = leader_compute(op, root, world_, [&](int r) -> const Tensor& {
        return r == 0 ? input : joins[static_cast<std::size_t>(r)];
      });
    } catch (const std::exception& e) {
      record_failure(std::string(kind) + " '" + tag + "' failed: " + e.what());
      throw;
    }
    const std::string result_tag = head + "result";
    for (int r = 1; r < world_; ++r) post(r, result_tag, result);
    return result;
  }

  const int world_;
  const std::chrono::milliseconds timeout_;
  const TransportConfig config_;
  TcpSupervisor* const supervisor_;
  std::vector<std::unique_ptr<TcpLoopbackMailbox>> inboxes_;  ///< in-process mode only
  std::vector<std::uint64_t> calls_;  ///< per-rank collective index; rank r's thread only

  mutable std::mutex state_mutex_;  ///< guards the members below
  std::shared_ptr<AbortToken> abort_;
  std::string failure_;
  std::uint64_t completed_ = 0;  ///< collective indices completed, each counted once
  std::vector<char> waiting_;
  std::vector<std::string> tags_;
};

}  // namespace

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport TcpTransport::in_process() { return TcpTransport(); }

TcpTransport::TcpTransport(ShmArena& arena, int self_rank, TransportConfig config,
                           std::shared_ptr<FaultInjector> injector)
    : config_(config), self_(self_rank) {
  supervisor_ = std::make_unique<TcpSupervisor>(arena, self_rank, config, std::move(injector));
  supervisor_->establish();
}

std::unique_ptr<TcpTransport> TcpTransport::attach(ShmArena& arena, int self_rank,
                                                   TransportConfig config,
                                                   std::shared_ptr<FaultInjector> injector) {
  return std::unique_ptr<TcpTransport>(
      new TcpTransport(arena, self_rank, config, std::move(injector)));
}

std::unique_ptr<Mailbox> TcpTransport::make_mailbox(std::size_t capacity,
                                                    std::chrono::milliseconds timeout) {
  if (supervisor_ == nullptr) {
    return std::make_unique<TcpLoopbackMailbox>(capacity, timeout, TransportConfig::from_env());
  }
  const std::uint32_t id = next_mailbox_++;
  VOCAB_CHECK(id < static_cast<std::uint32_t>(supervisor_->world()),
              "tcp mesh creates one mailbox per rank (world " << supervisor_->world()
                                                              << "), attempted #" << id
                                                              << " — trainer construction order "
                                                                 "must match");
  return std::make_unique<TcpMeshMailbox>(id, capacity, timeout, config_, supervisor_.get());
}

std::unique_ptr<Collective> TcpTransport::make_collective(int world_size,
                                                          std::chrono::milliseconds timeout) {
  if (supervisor_ == nullptr) {
    return std::make_unique<TcpCollective>(world_size, timeout, TransportConfig::from_env(),
                                           nullptr);
  }
  VOCAB_CHECK(!collective_taken_, "tcp mesh holds one collective group and it is already taken");
  VOCAB_CHECK(world_size == supervisor_->world(), "tcp collective world "
                                                      << world_size << " vs mesh world "
                                                      << supervisor_->world());
  collective_taken_ = true;
  return std::make_unique<TcpCollective>(world_size, timeout, config_, supervisor_.get());
}

long long TcpTransport::heartbeat_age_ms(int rank) const {
  return supervisor_ != nullptr ? supervisor_->heartbeat_age_ms(rank) : -1;
}

std::vector<PeerStatus> TcpTransport::peer_status() const {
  return supervisor_ != nullptr ? supervisor_->peer_status() : std::vector<PeerStatus>{};
}

void TcpTransport::set_heartbeat_suppressed(std::function<bool()> fn) {
  if (supervisor_ != nullptr) supervisor_->set_heartbeat_suppressed(std::move(fn));
}

void TcpTransport::set_abort_token(std::shared_ptr<AbortToken> token) {
  if (supervisor_ != nullptr) supervisor_->set_abort_token(std::move(token));
}

void TcpTransport::mark_done() {
  if (supervisor_ != nullptr) supervisor_->mark_done();
}

}  // namespace vocab::transport
