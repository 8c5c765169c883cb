#pragma once

// Helpers shared by the transport backends (threads, shm, tcp); not part of
// the transport interface. One reduction body, one queue description and the
// wait error texts, so every backend reduces in the same order and words its
// errors the same way; plus the token read every polling wait starts with.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "common/error.h"
#include "transport/transport.h"

namespace vocab::transport {

/// acc = acc (op) contrib, elementwise. Every backend's leader folds rank 0's
/// tensor with ranks 1..n-1 in ascending order through this one body, which
/// is what keeps collective results bit-identical across backends.
inline void reduce_into(Tensor& acc, const Tensor& contrib, ReduceOp op) {
  VOCAB_CHECK(acc.same_shape(contrib),
              "collective shape mismatch: " << acc.shape_str() << " vs " << contrib.shape_str());
  float* pa = acc.data();
  const float* pb = contrib.data();
  const std::int64_t n = acc.numel();
  if (op == ReduceOp::Sum) {
    for (std::int64_t i = 0; i < n; ++i) pa[i] += pb[i];
  } else {
    for (std::int64_t i = 0; i < n; ++i) pa[i] = std::max(pa[i], pb[i]);
  }
}

/// "occupancy n/capacity, queued tags ['a', 'b', ...]" — names the messages
/// actually in flight, so a timed-out wait points at the schedule bug.
inline std::string describe_queue(const std::deque<Message>& queue, std::size_t capacity) {
  std::ostringstream os;
  os << "occupancy " << queue.size() << "/" << capacity << ", queued tags [";
  constexpr std::size_t kMaxListed = 16;
  for (std::size_t i = 0; i < std::min(queue.size(), kMaxListed); ++i) {
    if (i > 0) os << ", ";
    os << "'" << queue[i].tag << "'";
  }
  if (queue.size() > kMaxListed) os << ", ... +" << queue.size() - kMaxListed << " more";
  os << "]";
  return os.str();
}

/// An abort-token member read under the mutex that guards it — how a wait
/// site hands its token to PollWait.
inline std::shared_ptr<AbortToken> locked_copy(std::mutex& mutex,
                                               const std::shared_ptr<AbortToken>& token) {
  std::lock_guard lock(mutex);
  return token;
}

/// AbortedError context of a mailbox wait.
inline std::string channel_interrupted(const char* verb, const std::string& tag) {
  return std::string("channel ") + verb + " of tag '" + tag + "' interrupted";
}

/// Head of a mailbox timeout; the backend appends its queue description.
inline std::string channel_timed_out(const char* verb, const std::string& tag,
                                     long long elapsed_ms, std::chrono::milliseconds timeout) {
  return std::string("channel ") + verb + " timed out waiting for tag '" + tag + "' after " +
         std::to_string(elapsed_ms) + " ms (timeout " + std::to_string(timeout.count()) +
         " ms): ";
}

/// AbortedError context of a collective wait.
inline std::string collective_interrupted(const char* kind, const std::string& tag, int rank) {
  return std::string(kind) + " '" + tag + "' on rank " + std::to_string(rank) + " interrupted";
}

/// The failure a collective records when a token abort ends its wait.
inline std::string collective_aborted(const char* kind, const std::string& tag) {
  return "aborted during " + std::string(kind) + " '" + tag + "'";
}

/// Head of a collective timeout, parenthesis left open for the backend's
/// details: "deadlock: rank r timed out in kind 'tag' after e ms (timeout t ms".
inline std::string collective_timed_out(int rank, const char* kind, const std::string& tag,
                                        long long elapsed_ms, std::chrono::milliseconds timeout) {
  return "deadlock: rank " + std::to_string(rank) + " timed out in " + kind + " '" + tag +
         "' after " + std::to_string(elapsed_ms) + " ms (timeout " +
         std::to_string(timeout.count()) + " ms";
}

}  // namespace vocab::transport
