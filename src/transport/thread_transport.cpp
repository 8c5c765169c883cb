#include "transport/thread_transport.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "transport/backend_common.h"

namespace vocab::transport {

namespace {

// Failure-model attribution: the threads backend has no liveness signal — a
// peer "dying" here is a thread that stopped calling, which only the watchdog
// can see. Name the backend so a hang is not mistaken for a dead process.
constexpr const char* kThreadsSuffix = ", transport 'threads' (peer heartbeat n/a)";

// The park step of both thread waits: a condition-variable wait sliced by
// kAbortPollInterval, so the abort token is seen even if a notify is missed.
void park(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
          std::chrono::steady_clock::duration remaining) {
  cv.wait_for(lock, std::min<std::chrono::steady_clock::duration>(remaining, kAbortPollInterval));
}

}  // namespace

// ---------------------------------------------------------------------------
// ThreadMailbox
// ---------------------------------------------------------------------------

ThreadMailbox::ThreadMailbox(std::size_t capacity, std::chrono::milliseconds timeout)
    : capacity_(capacity),
      timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout) {
  VOCAB_CHECK(capacity > 0, "channel capacity must be positive");
}

void ThreadMailbox::set_abort_token(std::shared_ptr<AbortToken> token) {
  std::lock_guard lock(mutex_);
  abort_ = std::move(token);
}

template <typename Ready>
void ThreadMailbox::wait_or_throw(std::unique_lock<std::mutex>& lock,
                                  std::condition_variable& cv, const char* verb,
                                  const std::string& tag, Ready&& ready) {
  PollWait wait(
      timeout_, abort_,
      {.interrupted = [&] { return channel_interrupted(verb, tag); },
       .expired =
           [&](long long elapsed_ms) {
             return DeadlockError(channel_timed_out(verb, tag, elapsed_ms, timeout_) +
                                  describe_queue(queue_, capacity_) + kThreadsSuffix);
           },
       .park = [&](int, auto remaining) { park(lock, cv, remaining); }});
  wait.until(ready);
}

void ThreadMailbox::send(std::string tag, Tensor payload) {
  std::unique_lock lock(mutex_);
  wait_or_throw(lock, cv_send_, "send (full)", tag,
                [&] { return queue_.size() < capacity_; });
  queue_.push_back(Message{std::move(tag), std::move(payload)});
  cv_recv_.notify_all();
}

Message ThreadMailbox::recv() {
  std::unique_lock lock(mutex_);
  wait_or_throw(lock, cv_recv_, "recv (empty)", "<front>", [&] { return !queue_.empty(); });
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  cv_send_.notify_all();
  return msg;
}

Tensor ThreadMailbox::recv_tag(const std::string& tag) {
  std::unique_lock lock(mutex_);
  auto find = [&] { return std::find_if(queue_.begin(), queue_.end(),
                                        [&](const Message& m) { return m.tag == tag; }); };
  auto it = queue_.end();
  wait_or_throw(lock, cv_recv_, "recv", tag, [&] { return (it = find()) != queue_.end(); });
  Tensor payload = std::move(it->payload);
  queue_.erase(it);
  cv_send_.notify_all();
  return payload;
}

void ThreadMailbox::clear() {
  std::lock_guard lock(mutex_);
  queue_.clear();
  cv_send_.notify_all();
}

std::size_t ThreadMailbox::size() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::string ThreadMailbox::describe() const {
  std::lock_guard lock(mutex_);
  return describe_queue(queue_, capacity_) + kThreadsSuffix;
}

// ---------------------------------------------------------------------------
// ThreadCollective
// ---------------------------------------------------------------------------

ThreadCollective::ThreadCollective(int world_size, std::chrono::milliseconds timeout)
    : world_size_(world_size),
      timeout_(timeout == kCommTimeoutFromEnv ? default_comm_timeout() : timeout),
      slots_(static_cast<std::size_t>(std::max(world_size, 1))),
      tags_(static_cast<std::size_t>(std::max(world_size, 1))),
      waiting_(static_cast<std::size_t>(std::max(world_size, 1)), false) {
  VOCAB_CHECK(world_size >= 1, "world_size must be >= 1, got " << world_size);
}

void ThreadCollective::set_abort_token(std::shared_ptr<AbortToken> token) {
  std::lock_guard lock(mutex_);
  abort_ = std::move(token);
}

void ThreadCollective::check_rank(int rank) const {
  VOCAB_CHECK(rank >= 0 && rank < world_size_,
              "rank " << rank << " out of range [0, " << world_size_ << ")");
}

template <typename LeaderFn>
void ThreadCollective::rendezvous(int rank, const std::string& tag, const char* kind,
                                  LeaderFn&& leader_fn) {
  check_rank(rank);
  std::unique_lock lock(mutex_);
  waiting_[static_cast<std::size_t>(rank)] = true;
  struct WaitingGuard {
    std::vector<bool>& waiting;
    std::size_t rank;
    ~WaitingGuard() { waiting[rank] = false; }
  } waiting_guard{waiting_, static_cast<std::size_t>(rank)};

  PollWait wait(timeout_, abort_,
                {.on_abort =
                     [&] {
                       if (failure_.empty()) failure_ = collective_aborted(kind, tag);
                       cv_.notify_all();
                     },
                 .interrupted = [&] { return collective_interrupted(kind, tag, rank); },
                 .expired =
                     [&](long long elapsed_ms) {
                       failure_ = collective_timed_out(rank, kind, tag, elapsed_ms, timeout_) +
                                  "; arrived " + std::to_string(arrived_) + "/" +
                                  std::to_string(world_size_) + "; transport 'threads')";
                       cv_.notify_all();
                       return DeadlockError(failure_);
                     },
                 .park = [&](int, auto remaining) { park(lock, cv_, remaining); }});

  if (!failure_.empty()) throw DeadlockError("communicator poisoned: " + failure_);

  // Wait for the previous collective to fully drain before joining.
  wait.until([&] { return departed_ == 0 || !failure_.empty(); });
  if (!failure_.empty()) throw DeadlockError("communicator poisoned: " + failure_);

  const std::uint64_t my_gen = generation_;
  tags_[static_cast<std::size_t>(rank)] = tag;
  ++arrived_;

  if (arrived_ == world_size_) {
    // Leader: validate tags, run the collective body, release everyone.
    for (int r = 0; r < world_size_; ++r) {
      if (tags_[static_cast<std::size_t>(r)] != tag) {
        failure_ = std::string("collective mismatch in ") + kind + ": rank " +
                   std::to_string(rank) + " tag '" + tag + "' vs rank " + std::to_string(r) +
                   " tag '" + tags_[static_cast<std::size_t>(r)] + "'";
        arrived_ = 0;
        ++generation_;
        cv_.notify_all();
        throw CheckError(failure_);
      }
    }
    try {
      leader_fn();
    } catch (const std::exception& e) {
      failure_ = std::string(kind) + " '" + tag + "' failed: " + e.what();
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      throw;
    }
    ++completed_;
    arrived_ = 0;
    departed_ = world_size_;
    ++generation_;
    cv_.notify_all();
  } else {
    wait.until([&] { return generation_ != my_gen || !failure_.empty(); });
    if (!failure_.empty()) throw DeadlockError("collective aborted: " + failure_);
  }

  --departed_;
  if (departed_ == 0) cv_.notify_all();
}

void ThreadCollective::barrier(int rank, const std::string& tag) {
  rendezvous(rank, tag, "barrier", [] {});
}

void ThreadCollective::all_reduce(int rank, Tensor& data, ReduceOp op,
                                  const std::string& tag) {
  check_rank(rank);
  {
    std::lock_guard lock(mutex_);
    slots_[static_cast<std::size_t>(rank)] = &data;
  }
  rendezvous(rank, tag, "all_reduce", [&] {
    Tensor acc = *slots_[0];
    for (int r = 1; r < world_size_; ++r) {
      reduce_into(acc, *slots_[static_cast<std::size_t>(r)], op);
    }
    for (int r = 0; r < world_size_; ++r) *slots_[static_cast<std::size_t>(r)] = acc;
  });
}

void ThreadCollective::broadcast(int rank, int root, Tensor& data, const std::string& tag) {
  check_rank(rank);
  check_rank(root);
  {
    std::lock_guard lock(mutex_);
    slots_[static_cast<std::size_t>(rank)] = &data;
  }
  rendezvous(rank, tag, "broadcast", [&] {
    const Tensor& src = *slots_[static_cast<std::size_t>(root)];
    for (int r = 0; r < world_size_; ++r) {
      if (r != root) *slots_[static_cast<std::size_t>(r)] = src;
    }
  });
}

std::uint64_t ThreadCollective::completed_collectives() const {
  std::lock_guard lock(mutex_);
  return completed_;
}

std::vector<int> ThreadCollective::waiting_ranks() const {
  std::lock_guard lock(mutex_);
  std::vector<int> out;
  for (int r = 0; r < world_size_; ++r) {
    if (waiting_[static_cast<std::size_t>(r)]) out.push_back(r);
  }
  return out;
}

std::string ThreadCollective::describe() const {
  std::lock_guard lock(mutex_);
  std::ostringstream os;
  os << "arrived " << arrived_ << "/" << world_size_ << ", departed " << departed_
     << ", completed " << completed_ << ", waiters [";
  bool first = true;
  for (int r = 0; r < world_size_; ++r) {
    if (!waiting_[static_cast<std::size_t>(r)]) continue;
    if (!first) os << ", ";
    first = false;
    os << "r" << r << ":'" << tags_[static_cast<std::size_t>(r)] << "'";
  }
  os << "]";
  if (!failure_.empty()) os << ", failure: " << failure_;
  os << kThreadsSuffix;
  return os.str();
}

// ---------------------------------------------------------------------------
// ThreadTransport
// ---------------------------------------------------------------------------

std::unique_ptr<Mailbox> ThreadTransport::make_mailbox(std::size_t capacity,
                                                       std::chrono::milliseconds timeout) {
  return std::make_unique<ThreadMailbox>(capacity, timeout);
}

std::unique_ptr<Collective> ThreadTransport::make_collective(
    int world_size, std::chrono::milliseconds timeout) {
  return std::make_unique<ThreadCollective>(world_size, timeout);
}

}  // namespace vocab::transport
