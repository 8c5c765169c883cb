// Tests for the thread-rendezvous communicator and P2P channels.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "comm/device_group.h"
#include "common/error.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

/// Run `fn(rank)` on `world` threads, rethrowing the first exception.
void run_ranks(int world, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

TEST(DeviceGroup, AllReduceSum) {
  DeviceGroup group(4);
  run_ranks(4, [&](int rank) {
    Tensor t({3}, static_cast<float>(rank + 1));
    group.all_reduce(rank, t, ReduceOp::Sum, "sum");
    for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(t.at(i), 10.0f);
  });
  EXPECT_EQ(group.completed_collectives(), 1u);
}

TEST(DeviceGroup, AllReduceMax) {
  DeviceGroup group(3);
  run_ranks(3, [&](int rank) {
    Tensor t({2}, std::vector<float>{static_cast<float>(rank), -static_cast<float>(rank)});
    group.all_reduce(rank, t, ReduceOp::Max, "max");
    EXPECT_FLOAT_EQ(t.at(0), 2.0f);
    EXPECT_FLOAT_EQ(t.at(1), 0.0f);
  });
}

TEST(DeviceGroup, BroadcastAdoptsRootShapeAndValues) {
  DeviceGroup group(3);
  run_ranks(3, [&](int rank) {
    Tensor t;
    if (rank == 1) t = Tensor({2, 2}, 7.0f);
    group.broadcast(rank, /*root=*/1, t, "bcast");
    ASSERT_EQ(t.rank(), 2);
    EXPECT_FLOAT_EQ(t.at(1, 1), 7.0f);
  });
}

TEST(DeviceGroup, RepeatedCollectivesReuseCleanState) {
  DeviceGroup group(2);
  run_ranks(2, [&](int rank) {
    for (int iter = 0; iter < 50; ++iter) {
      Tensor t({1}, static_cast<float>(rank + iter));
      group.all_reduce(rank, t, ReduceOp::Sum, "iter" + std::to_string(iter));
      EXPECT_FLOAT_EQ(t.at(0), static_cast<float>(2 * iter + 1));
    }
  });
  EXPECT_EQ(group.completed_collectives(), 50u);
}

TEST(DeviceGroup, TagMismatchIsDetected) {
  DeviceGroup group(2, std::chrono::milliseconds(2000));
  std::atomic<int> failures{0};
  run_ranks(2, [&](int rank) {
    Tensor t({1});
    try {
      group.all_reduce(rank, t, ReduceOp::Sum, rank == 0 ? "a" : "b");
    } catch (const Error&) {
      ++failures;
    }
  });
  EXPECT_GE(failures.load(), 1);
}

TEST(DeviceGroup, MissingParticipantTimesOutAsDeadlock) {
  DeviceGroup group(2, std::chrono::milliseconds(200));
  Tensor t({1});
  EXPECT_THROW(group.all_reduce(0, t, ReduceOp::Sum, "lonely"), DeadlockError);
}

TEST(DeviceGroup, ShapeMismatchAcrossRanksThrows) {
  DeviceGroup group(2, std::chrono::milliseconds(2000));
  std::atomic<int> failures{0};
  run_ranks(2, [&](int rank) {
    Tensor t = rank == 0 ? Tensor({2}) : Tensor({3});
    try {
      group.all_reduce(rank, t, ReduceOp::Sum, "shape");
    } catch (const Error&) {
      ++failures;
    }
  });
  EXPECT_GE(failures.load(), 1);
}

TEST(DeviceGroup, InvalidRankThrows) {
  DeviceGroup group(2);
  Tensor t({1});
  EXPECT_THROW(group.all_reduce(2, t, ReduceOp::Sum, "x"), CheckError);
  EXPECT_THROW(group.all_reduce(-1, t, ReduceOp::Sum, "x"), CheckError);
}

TEST(DeviceGroup, SingleRankGroupIsIdentity) {
  DeviceGroup group(1);
  Tensor t({2}, 3.0f);
  group.all_reduce(0, t, ReduceOp::Sum, "solo");
  EXPECT_FLOAT_EQ(t.at(0), 3.0f);
}

TEST(Channel, SendRecvPreservesOrderAndPayload) {
  Channel ch;
  ch.send("first", Tensor({1}, 1.0f));
  ch.send("second", Tensor({1}, 2.0f));
  const Message m1 = ch.recv();
  EXPECT_EQ(m1.tag, "first");
  EXPECT_FLOAT_EQ(m1.payload.at(0), 1.0f);
  const Message m2 = ch.recv();
  EXPECT_EQ(m2.tag, "second");
  EXPECT_FLOAT_EQ(m2.payload.at(0), 2.0f);
}

TEST(Channel, CrossThreadTransfer) {
  Channel ch;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) ch.send("mb" + std::to_string(i), Tensor({1}, static_cast<float>(i)));
  });
  for (int i = 0; i < 100; ++i) {
    const Message m = ch.recv();
    EXPECT_EQ(m.tag, "mb" + std::to_string(i));
    EXPECT_FLOAT_EQ(m.payload.at(0), static_cast<float>(i));
  }
  producer.join();
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, EmptyRecvTimesOut) {
  Channel ch(4, std::chrono::milliseconds(100));
  EXPECT_THROW(ch.recv(), DeadlockError);
}

TEST(Channel, FullSendTimesOut) {
  Channel ch(1, std::chrono::milliseconds(100));
  ch.send("a", Tensor({1}));
  EXPECT_THROW(ch.send("b", Tensor({1})), DeadlockError);
}

TEST(Channel, DeadlockErrorNamesQueuedTagsAndOccupancy) {
  Channel ch(2, std::chrono::milliseconds(100));
  ch.send("act:s1:mb0", Tensor({1}));
  ch.send("act:s1:mb1", Tensor({1}));
  try {
    ch.send("act:s1:mb2", Tensor({1}));
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'act:s1:mb2'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("occupancy 2/2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'act:s1:mb0', 'act:s1:mb1'"), std::string::npos) << msg;
  }
}

TEST(Channel, FullSendBlocksUntilDrained) {
  // A send into a full channel must block (not drop, not throw) and complete
  // once a reader drains capacity — the non-blocking-send guarantee the
  // schedule executor relies on is "bounded buffer", not "fire and forget".
  Channel ch(1, std::chrono::seconds(5));
  ch.send("first", Tensor({1}, 1.0f));
  std::atomic<bool> second_sent{false};
  std::thread producer([&] {
    ch.send("second", Tensor({1}, 2.0f));  // blocks: channel is at capacity
    second_sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_sent) << "send into a full channel must block";
  const Message first = ch.recv();
  EXPECT_EQ(first.tag, "first");
  EXPECT_FLOAT_EQ(first.payload.at(0), 1.0f);
  const Message second = ch.recv();
  EXPECT_EQ(second.tag, "second");
  EXPECT_FLOAT_EQ(second.payload.at(0), 2.0f);
  producer.join();
  EXPECT_TRUE(second_sent);
}

TEST(Channel, RecvTagPicksFromTheMiddleOfTheQueue) {
  Channel ch;
  ch.send("grad:s0:mb1", Tensor({1}, 1.0f));
  ch.send("act:s2:mb3", Tensor({1}, 3.0f));
  ch.send("grad:s0:mb2", Tensor({1}, 2.0f));
  EXPECT_FLOAT_EQ(ch.recv_tag("act:s2:mb3").at(0), 3.0f);
  EXPECT_FLOAT_EQ(ch.recv_tag("grad:s0:mb2").at(0), 2.0f);
  EXPECT_FLOAT_EQ(ch.recv_tag("grad:s0:mb1").at(0), 1.0f);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, RecvTagUnblocksOnLateMatchingSend) {
  Channel ch(8, std::chrono::seconds(5));
  ch.send("other", Tensor({1}, 9.0f));
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ch.send("wanted", Tensor({1}, 7.0f));
  });
  EXPECT_FLOAT_EQ(ch.recv_tag("wanted").at(0), 7.0f);
  producer.join();
  EXPECT_EQ(ch.size(), 1u);  // "other" still queued for its own consumer
}

TEST(Channel, RecvTagTimeoutReportsWhatIsActuallyQueued) {
  Channel ch(4, std::chrono::milliseconds(100));
  ch.send("bwd:mb0", Tensor({1}));
  try {
    ch.recv_tag("bwd:mb1");
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'bwd:mb1'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("occupancy 1/4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'bwd:mb0'"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace vocab
