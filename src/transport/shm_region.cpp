#include "transport/shm_region.h"

#include <linux/futex.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cstring>
#include <new>

#include "common/error.h"

namespace vocab::transport {

namespace {

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

}  // namespace

bool shm_transport_supported() {
  static const bool supported = [] {
    void* p = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    ::munmap(p, 4096);
    return true;
  }();
  return supported;
}

std::int64_t shm_monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// Doorbell
// ---------------------------------------------------------------------------

// The futex syscall operates on the raw 32-bit word inside the atomic.
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the doorbell futex needs a plain lock-free 32-bit word");

void shm_bell_ring(std::atomic<std::uint32_t>& bell) noexcept {
  bell.fetch_add(1, std::memory_order_release);
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&bell), FUTEX_WAKE, INT32_MAX, nullptr,
            nullptr, 0);
}

void shm_bell_wait(const std::atomic<std::uint32_t>& bell, std::uint32_t seen,
                   std::chrono::nanoseconds timeout) noexcept {
  if (timeout.count() <= 0) return;
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(timeout);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(secs.count());
  ts.tv_nsec = static_cast<long>((timeout - secs).count());
  // Returns at once (EAGAIN) when the bell already moved past `seen`; EINTR
  // and ETIMEDOUT are ordinary wake-ups, the caller re-checks either way.
  ::syscall(SYS_futex,
            const_cast<std::uint32_t*>(reinterpret_cast<const std::uint32_t*>(&bell)), FUTEX_WAIT,
            seen, &ts, nullptr, 0);
}

// ---------------------------------------------------------------------------
// ShmSpinLock
// ---------------------------------------------------------------------------

bool ShmSpinLock::try_lock() noexcept {
  std::uint32_t expected = 0;
  return held.compare_exchange_strong(expected, 1, std::memory_order_acquire,
                                      std::memory_order_relaxed);
}

void ShmSpinLock::lock() noexcept {
  int spins = 0;
  while (!try_lock()) {
    if (++spins >= 64) {
      ::sched_yield();
      spins = 0;
    }
  }
}

void ShmSpinLock::unlock() noexcept { held.store(0, std::memory_order_release); }

// ---------------------------------------------------------------------------
// ShmAbortBlock / ShmCollectiveControl
// ---------------------------------------------------------------------------

bool ShmAbortBlock::post(int dev, int op, const char* reason) noexcept {
  lock.lock();
  if (flag.load(std::memory_order_relaxed) != 0) {
    lock.unlock();
    return false;
  }
  device = dev;
  op_id = op;
  std::strncpy(what, reason == nullptr ? "" : reason, sizeof(what) - 1);
  what[sizeof(what) - 1] = '\0';
  flag.store(1, std::memory_order_release);
  lock.unlock();
  return true;
}

void ShmCollectiveControl::post_failure(const char* text) noexcept {
  failure_lock.lock();
  if (failure_set.load(std::memory_order_relaxed) == 0) {
    std::strncpy(failure, text == nullptr ? "" : text, sizeof(failure) - 1);
    failure[sizeof(failure) - 1] = '\0';
    failure_set.store(1, std::memory_order_release);
  }
  failure_lock.unlock();
  shm_bell_ring(bell);
}

// ---------------------------------------------------------------------------
// Region layout helpers
// ---------------------------------------------------------------------------

std::size_t shm_collective_region_bytes(int world, std::size_t slot_bytes) {
  const auto w = static_cast<std::size_t>(world);
  std::size_t bytes = align_up(sizeof(ShmCollectiveControl), kShmAlign);
  bytes += align_up(w * sizeof(std::atomic<std::uint32_t>), kShmAlign);  // waiting
  bytes += align_up(w * kShmTagBytes, kShmAlign);                        // tags
  bytes += align_up(w * slot_bytes, kShmAlign);                          // slots
  bytes += align_up(w * slot_bytes, kShmAlign);                          // result
  return bytes;
}

ShmCollectiveView shm_map_collective(std::byte* base, int world, std::size_t slot_bytes) {
  const auto w = static_cast<std::size_t>(world);
  ShmCollectiveView view;
  view.world = world;
  view.slot_bytes = slot_bytes;
  std::size_t offset = 0;
  view.control = reinterpret_cast<ShmCollectiveControl*>(base + offset);
  offset += align_up(sizeof(ShmCollectiveControl), kShmAlign);
  view.waiting = reinterpret_cast<std::atomic<std::uint32_t>*>(base + offset);
  offset += align_up(w * sizeof(std::atomic<std::uint32_t>), kShmAlign);
  view.tags = reinterpret_cast<char*>(base + offset);
  offset += align_up(w * kShmTagBytes, kShmAlign);
  view.slots = base + offset;
  offset += align_up(w * slot_bytes, kShmAlign);
  view.result = base + offset;
  return view;
}

void shm_init_collective(const ShmCollectiveView& view) {
  new (view.control) ShmCollectiveControl{};
  for (int r = 0; r < view.world; ++r) {
    new (&view.waiting[r]) std::atomic<std::uint32_t>{0};
    view.tag(r)[0] = '\0';
  }
}

std::size_t shm_ring_region_bytes(std::size_t ring_bytes) {
  return align_up(sizeof(ShmRingControl), kShmAlign) + align_up(ring_bytes, kShmAlign);
}

ShmRingView shm_map_ring(std::byte* base, std::size_t ring_bytes) {
  (void)ring_bytes;
  ShmRingView view;
  view.control = reinterpret_cast<ShmRingControl*>(base);
  view.data = base + align_up(sizeof(ShmRingControl), kShmAlign);
  return view;
}

void shm_init_ring(const ShmRingView& view, std::size_t ring_bytes) {
  new (view.control) ShmRingControl{};
  view.control->capacity_bytes = ring_bytes;
}

// ---------------------------------------------------------------------------
// ShmMapping / ShmArena
// ---------------------------------------------------------------------------

std::unique_ptr<ShmMapping> ShmMapping::create(std::size_t bytes) {
  bytes = align_up(bytes, static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return nullptr;
  return std::unique_ptr<ShmMapping>(new ShmMapping(static_cast<std::byte*>(p), bytes));
}

ShmMapping::~ShmMapping() { ::munmap(base_, bytes_); }

ShmArena::ShmArena(std::unique_ptr<ShmMapping> mapping, ShmArenaOptions options)
    : mapping_(std::move(mapping)),
      options_(options),
      header_(reinterpret_cast<ShmArenaHeader*>(mapping_->data())) {}

std::unique_ptr<ShmArena> ShmArena::create(const ShmArenaOptions& options) {
  VOCAB_CHECK(options.world >= 1, "shm arena world must be >= 1, got " << options.world);
  VOCAB_CHECK(options.ring_bytes >= 4096 && options.slot_bytes >= 4096,
              "shm arena ring/slot sizes must be at least one page");

  ShmArenaHeader header;
  header.magic = kShmMagic;
  header.world = options.world;
  header.num_mailboxes = static_cast<std::uint32_t>(options.num_mailboxes);
  header.ring_bytes = options.ring_bytes;
  header.slot_bytes = options.slot_bytes;

  std::size_t offset = align_up(sizeof(ShmArenaHeader), kShmAlign);
  header.abort_offset = offset;
  offset += align_up(sizeof(ShmAbortBlock), kShmAlign);
  header.rank_state_offset = offset;
  offset += align_up(static_cast<std::size_t>(options.world) * sizeof(ShmRankState), kShmAlign);
  header.progress_offset = offset;
  offset += align_up(sizeof(ShmProgressBlock), kShmAlign);
  header.collective_offset = offset;
  offset += shm_collective_region_bytes(options.world, options.slot_bytes);
  header.rings_offset = offset;
  offset += options.num_mailboxes * shm_ring_region_bytes(options.ring_bytes);
  header.total_bytes = offset;

  auto mapping = ShmMapping::create(offset);
  if (mapping == nullptr) return nullptr;

  auto arena = std::unique_ptr<ShmArena>(new ShmArena(std::move(mapping), options));
  *arena->header_ = header;
  new (&arena->abort_block()) ShmAbortBlock{};
  for (int r = 0; r < options.world; ++r) new (&arena->rank_state(r)) ShmRankState{};
  new (&arena->progress()) ShmProgressBlock{};
  shm_init_collective(arena->collective());
  for (std::size_t i = 0; i < options.num_mailboxes; ++i) {
    shm_init_ring(arena->ring(i), options.ring_bytes);
  }
  return arena;
}

ShmAbortBlock& ShmArena::abort_block() const {
  return *reinterpret_cast<ShmAbortBlock*>(mapping_->data() + header_->abort_offset);
}

ShmRankState* ShmArena::rank_states() const {
  return reinterpret_cast<ShmRankState*>(mapping_->data() + header_->rank_state_offset);
}

ShmRankState& ShmArena::rank_state(int rank) const {
  VOCAB_CHECK(rank >= 0 && rank < header_->world,
              "rank " << rank << " out of range [0, " << header_->world << ")");
  return rank_states()[rank];
}

ShmProgressBlock& ShmArena::progress() const {
  return *reinterpret_cast<ShmProgressBlock*>(mapping_->data() + header_->progress_offset);
}

ShmCollectiveView ShmArena::collective() const {
  return shm_map_collective(mapping_->data() + header_->collective_offset, header_->world,
                            header_->slot_bytes);
}

ShmRingView ShmArena::ring(std::size_t index) const {
  VOCAB_CHECK(index < header_->num_mailboxes,
              "ring index " << index << " out of range [0, " << header_->num_mailboxes << ")");
  std::byte* base =
      mapping_->data() + header_->rings_offset + index * shm_ring_region_bytes(header_->ring_bytes);
  return shm_map_ring(base, header_->ring_bytes);
}

}  // namespace vocab::transport
