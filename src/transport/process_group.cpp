#include "transport/process_group.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

#include "common/error.h"
#include "fault/abort_token.h"
#include "transport/transport.h"

namespace vocab::transport {

std::string ProcessExit::describe() const {
  if (signaled) return "rank " + std::to_string(rank) + " killed by signal " + std::to_string(sig);
  return "rank " + std::to_string(rank) + " exited with status " + std::to_string(status);
}

ProcessGroup ProcessGroup::spawn(int world, const std::function<void(int)>& fn) {
  VOCAB_CHECK(world >= 1, "process group world must be >= 1, got " << world);
  ProcessGroup group;
  group.pids_.reserve(static_cast<std::size_t>(world));
  group.reaped_.reserve(static_cast<std::size_t>(world));
  for (int rank = 0; rank < world; ++rank) {
    const pid_t pid = ::fork();
    const int fork_errno = errno;
    // pids_ only ever holds forked children: on a failed fork the half-built
    // group's destructor kills and reaps exactly the ranks forked so far.
    VOCAB_CHECK(pid >= 0, "fork failed for rank " << rank << ": " << std::strerror(fork_errno));
    if (pid == 0) {
      // Child: run and leave via _exit only — never unwind into the parent's
      // copied stack, never run the parent's atexit handlers.
      int code = kWorkerExitOk;
      try {
        fn(rank);
      } catch (const AbortedError&) {
        code = kWorkerExitAborted;
      } catch (const PeerDeadError&) {
        // Before the DeadlockError handler: PeerDeadError derives from it,
        // and the distinct exit code is what lets the elastic coordinator
        // downgrade on a partition instead of retrying at full width.
        code = kWorkerExitPeerDead;
      } catch (const DeadlockError&) {
        code = kWorkerExitAborted;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "worker rank %d: %s\n", rank, e.what());
        code = kWorkerExitError;
      } catch (...) {
        std::fprintf(stderr, "worker rank %d: unknown exception\n", rank);
        code = kWorkerExitError;
      }
      std::fflush(nullptr);
      ::_exit(code);
    }
    group.pids_.push_back(pid);
    group.reaped_.push_back(false);
  }
  return group;
}

ProcessGroup::~ProcessGroup() {
  kill_all(SIGKILL);
  for (std::size_t r = 0; r < pids_.size(); ++r) {
    if (reaped_[r]) continue;
    int status = 0;
    while (::waitpid(pids_[r], &status, 0) < 0 && errno == EINTR) {
    }
  }
}

std::vector<ProcessExit> ProcessGroup::poll() {
  std::vector<ProcessExit> fresh;
  for (std::size_t r = 0; r < pids_.size(); ++r) {
    if (reaped_[r]) continue;
    int status = 0;
    const pid_t got = ::waitpid(pids_[r], &status, WNOHANG);
    if (got != pids_[r]) continue;
    ProcessExit exit;
    exit.rank = static_cast<int>(r);
    if (WIFEXITED(status)) {
      exit.exited = true;
      exit.status = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      exit.signaled = true;
      exit.sig = WTERMSIG(status);
    }
    reaped_[r] = true;
    exits_.push_back(exit);
    fresh.push_back(exit);
  }
  return fresh;
}

std::vector<int> ProcessGroup::alive() const {
  std::vector<int> out;
  for (std::size_t r = 0; r < pids_.size(); ++r) {
    if (!reaped_[r]) out.push_back(static_cast<int>(r));
  }
  return out;
}

bool ProcessGroup::all_done() const {
  for (const bool reaped : reaped_) {
    if (!reaped) return false;
  }
  return true;
}

void ProcessGroup::kill_rank(int rank, int sig) {
  VOCAB_CHECK(rank >= 0 && rank < static_cast<int>(pids_.size()),
              "rank " << rank << " out of range [0, " << pids_.size() << ")");
  if (!reaped_[static_cast<std::size_t>(rank)]) {
    ::kill(pids_[static_cast<std::size_t>(rank)], sig);
  }
}

void ProcessGroup::kill_all(int sig) {
  for (std::size_t r = 0; r < pids_.size(); ++r) {
    if (!reaped_[r]) ::kill(pids_[r], sig);
  }
}

bool ProcessGroup::wait_all(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    poll();
    if (all_done()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace vocab::transport
