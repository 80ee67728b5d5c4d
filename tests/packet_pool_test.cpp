// The pooled packet slab (sim/packet_pool.h) and the PacketFifo output
// queues threaded through it, behind the PSN hot paths.

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/packet.h"
#include "src/sim/packet_pool.h"
#include "src/util/alloc_guard.h"

namespace arpanet::sim {
namespace {

TEST(PacketPoolTest, AcquireGrowsThenRecyclesSlots) {
  PacketPool pool;
  const PacketHandle a = pool.acquire();
  const PacketHandle b = pool.acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.slots(), 2u);
  EXPECT_EQ(pool.in_use(), 2u);

  pool.release(a);
  EXPECT_EQ(pool.in_use(), 1u);
  const PacketHandle c = pool.acquire();
  EXPECT_EQ(c, a) << "freed slot must be recycled before the slab grows";
  EXPECT_EQ(pool.slots(), 2u);
  EXPECT_EQ(pool.recycled(), 1u);
  EXPECT_EQ(pool.acquired(), 3u);
}

TEST(PacketPoolTest, PeakInUseIsAHighWaterMark) {
  PacketPool pool;
  std::vector<PacketHandle> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.peak_in_use(), 5u);
  for (const PacketHandle h : held) pool.release(h);
  EXPECT_EQ(pool.in_use(), 0u);
  (void)pool.acquire();
  EXPECT_EQ(pool.peak_in_use(), 5u);
}

TEST(PacketPoolTest, SlotAddressesAreStableAcrossGrowth) {
  PacketPool pool;
  const PacketHandle first = pool.acquire();
  Packet* addr = &pool.at(first);
  // Force the slab through several new pages; pages never move, so the
  // first slot must stay put.
  for (std::size_t i = 0; i < 2 * PacketPool::kPageSlots + 1000; ++i) {
    (void)pool.acquire();
  }
  EXPECT_EQ(&pool.at(first), addr);
}

TEST(PacketPoolTest, ReserveConstructsNoSlots) {
  PacketPool pool;
  // Spans three pages, the last one partly.
  const std::size_t n = 2 * PacketPool::kPageSlots + 5;
  pool.reserve(n);
  EXPECT_EQ(pool.slots(), 0u) << "reserve must not construct a slot";
  EXPECT_EQ(pool.capacity(), 3 * PacketPool::kPageSlots);
  EXPECT_EQ(pool.in_use(), 0u);

  std::vector<PacketHandle> held;
  held.reserve(n);
  const util::AllocGuard guard;
  held.push_back(pool.acquire());
  const Packet* first = &pool.at(held.front());
  for (std::size_t i = 1; i < n; ++i) held.push_back(pool.acquire());
  for (const PacketHandle h : held) pool.release(h);
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(guard.bytes(), 0u);
  EXPECT_EQ(&pool.at(held.front()), first);
  EXPECT_EQ(pool.slots(), n) << "each acquire constructs one reserved slot";
  EXPECT_EQ(pool.recycled(), 0u);
  EXPECT_EQ(pool.capacity(), 3 * PacketPool::kPageSlots);
}

TEST(PacketPoolTest, ReleaseDropsPooledUpdateReferences) {
  PacketPool pool;
  UpdatePool updates;
  pool.attach_update_pool(&updates);

  const UpdateHandle uh = updates.acquire();
  updates.at(uh).origin = 7;
  EXPECT_EQ(updates.in_use(), 1u);

  const PacketHandle h = pool.acquire();
  pool.at(h).update = uh;
  pool.release(h);
  EXPECT_EQ(updates.in_use(), 0u)
      << "a parked slot must not pin routing-update slots";

  // The freed slot is recycled with its reports capacity intact and its
  // identity fields reset.
  const UpdateHandle again = updates.acquire();
  EXPECT_EQ(again, uh);
  EXPECT_EQ(updates.at(again).origin, net::kInvalidNode);
  EXPECT_EQ(updates.recycled(), 1u);
}

TEST(PacketPoolTest, PacketIsAFlatRecordOfAtMost48Bytes) {
  // Mirrors the static_asserts in src/sim/packet.h: the pool reserves one
  // slot per queue place, so the record's size is paid at every place.
  EXPECT_TRUE(std::is_trivially_copyable_v<Packet>);
  EXPECT_LE(sizeof(Packet), 48u);
}

TEST(PacketPoolTest, ReleaseLeavesHostMessageTagsAlone) {
  PacketPool pool;
  UpdatePool updates;
  pool.attach_update_pool(&updates);
  const UpdateHandle uh = updates.acquire();

  // A host-message tag shares the payload slot with the update handle;
  // releasing the packet must not read it as a reference to drop.
  const PacketHandle h = pool.acquire();
  pool.at(h).flags = Packet::kHostMessage;
  pool.at(h).message_tag = uh;
  pool.release(h);
  EXPECT_EQ(updates.in_use(), 1u);

  const PacketHandle again = pool.acquire();
  EXPECT_EQ(again, h);
  EXPECT_EQ(pool.at(again).flags, 0);
  EXPECT_EQ(pool.at(again).update, kInvalidUpdateHandle);
}

TEST(PacketPoolTest, ReleaseDropsPooledDistanceVectorReferences) {
  PacketPool pool;
  UpdatePool updates;
  updates.set_report_capacity(16);
  pool.attach_update_pool(&updates);

  // One advertisement, on the slot's row, shared by two per-neighbor copies.
  const UpdateHandle uh = updates.acquire();
  updates.at(uh).origin = 3;
  updates.at(uh).costs.assign(16, 1.0);
  PacketHandle copies[2];
  for (PacketHandle& c : copies) {
    c = pool.acquire();
    pool.at(c).kind = Packet::Kind::kDistanceVector;
    pool.at(c).update = uh;
    updates.add_ref(uh);
  }
  updates.release(uh);  // the originator's reference
  pool.release(copies[0]);
  EXPECT_EQ(updates.in_use(), 1u) << "one copy still holds the vector";
  pool.release(copies[1]);
  EXPECT_EQ(updates.in_use(), 0u);

  // Recycled with its row storage kept and its identity reset.
  const util::AllocGuard guard;
  const UpdateHandle again = updates.acquire();
  EXPECT_EQ(again, uh);
  EXPECT_EQ(updates.at(again).origin, net::kInvalidNode);
  EXPECT_TRUE(updates.at(again).costs.empty());
  updates.at(again).costs.assign(16, 2.0);
  EXPECT_EQ(guard.allocations(), 0u);
}

TEST(UpdatePoolTest, AddRefKeepsSlotAliveUntilLastRelease) {
  UpdatePool updates;
  const UpdateHandle h = updates.acquire();
  updates.add_ref(h);
  updates.release(h);
  EXPECT_EQ(updates.in_use(), 1u) << "one reference should still be live";
  updates.release(h);
  EXPECT_EQ(updates.in_use(), 0u);
}

TEST(UpdatePoolTest, HeldSlotsStayLiveOutOfFlight) {
  UpdatePool updates;
  const UpdateHandle h = updates.acquire();
  updates.hold(h);  // a PSN adopts the update it originated
  updates.hold(h);  // and a second PSN the same version
  EXPECT_EQ(updates.in_flight(), 1u);
  updates.release(h);  // the last flooded copy is consumed
  EXPECT_EQ(updates.in_flight(), 0u);
  EXPECT_EQ(updates.peak_in_flight(), 1u);
  EXPECT_EQ(updates.in_use(), 1u) << "held versions stay live";
  EXPECT_EQ(updates.held(), 1u);
  updates.drop_hold(h);
  EXPECT_EQ(updates.in_use(), 1u);
  updates.drop_hold(h);  // the last holder moved on to a newer version
  EXPECT_EQ(updates.in_use(), 0u);
  EXPECT_EQ(updates.held(), 0u);
  EXPECT_EQ(updates.acquire(), h) << "the parked slot is recycled";
}

TEST(UpdatePoolDeathTest, ReadingARowNobodyHoldsFailsUnderAsan) {
#if !defined(ARPANET_ASAN)
  GTEST_SKIP() << "row poisoning is compiled in only under AddressSanitizer";
#else
  UpdatePool updates;
  updates.set_report_capacity(4);
  const UpdateHandle h = updates.acquire();
  updates.at(h).costs.assign(4, 30.0);
  const volatile double* row = updates.at(h).costs.data();
  updates.hold(h);
  updates.release(h);
  EXPECT_EQ(row[3], 30.0) << "a held row stays readable";
  updates.drop_hold(h);
  // A PSN reading a version it no longer holds reads a parked row.
  EXPECT_DEATH((void)row[0], "use-after-poison");
  // Recycling the slot unpoisons its row for the next occupant.
  ASSERT_EQ(updates.acquire(), h);
  updates.at(h).costs.assign(4, 45.0);
  EXPECT_EQ(row[0], 45.0);
#endif
}

TEST(UpdatePoolTest, CyclesAfterWarmUpAllocateNothing) {
  UpdatePool updates;
  updates.set_report_capacity(4);
  // Warm-up: eight updates live at once, each acquired from an empty
  // freelist, so the slab grows to eight slots.
  std::vector<UpdateHandle> live;
  live.reserve(8);
  for (int i = 0; i < 8; ++i) live.push_back(updates.acquire());

  const util::AllocGuard guard;
  // Parking all eight at once fills the freelist to the slab's size.
  for (const UpdateHandle h : live) updates.release(h);
  for (int round = 0; round < 100; ++round) {
    live.clear();
    for (int i = 0; i <= round % 8; ++i) {
      const UpdateHandle h = updates.acquire();
      updates.at(h).costs.assign(4, 1.0);
      updates.add_ref(h);
      live.push_back(h);
    }
    for (const UpdateHandle h : live) {
      updates.release(h);
      updates.release(h);
    }
  }
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(updates.slots(), 8u);
  EXPECT_EQ(updates.in_use(), 0u);
}

TEST(UpdatePoolTest, FreshSlotsGrowTheFreelistGeometrically) {
  UpdatePool updates;
  updates.set_report_capacity(1);
  constexpr std::size_t kSlots = 1024;
  std::vector<UpdateHandle> live;
  live.reserve(kSlots);

  const util::AllocGuard guard;
  for (std::size_t i = 0; i < kSlots; ++i) live.push_back(updates.acquire());
  const std::uint64_t grown = guard.allocations();
  for (const UpdateHandle h : live) updates.release(h);
  EXPECT_EQ(guard.allocations(), grown) << "release() must never allocate";

  // Each new slot pays its one reports buffer; the deque slab adds a block
  // per several slots (a Slot is far below a quarter of libstdc++'s
  // 512-byte block) and a logarithmic number of block-map growths; the
  // freelist may add only logarithmically many growths on top. Growing it
  // one slot at a time would add one reallocation per slot.
  const std::uint64_t log2_slots = 10;
  EXPECT_LE(grown, kSlots + kSlots / 4 + 4 * log2_slots);
  EXPECT_EQ(updates.slots(), kSlots);
}

TEST(UpdatePoolTest, ReserveParksSlotsForLaterAcquires) {
  UpdatePool updates;
  updates.set_report_capacity(2);
  updates.reserve(4);
  EXPECT_EQ(updates.slots(), 4u);
  EXPECT_EQ(updates.in_use(), 0u);

  const util::AllocGuard guard;
  UpdateHandle live[4];
  for (UpdateHandle& h : live) {
    h = updates.acquire();
    updates.at(h).costs.push_back(1.0);
    updates.at(h).costs.push_back(1.0);
  }
  for (const UpdateHandle h : live) updates.release(h);
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(updates.slots(), 4u);
  EXPECT_EQ(updates.recycled(), 4u);
}

TEST(PacketPoolTest, AcquireWithPacketMovesItIn) {
  PacketPool pool;
  Packet pkt;
  pkt.dst = 3;
  pkt.bits = 568.0;
  const PacketHandle h = pool.acquire(std::move(pkt));
  EXPECT_EQ(pool.at(h).dst, 3u);
  EXPECT_DOUBLE_EQ(pool.at(h).bits, 568.0);
}

// Drains `q` and returns its handles in pop order.
std::vector<PacketHandle> drain(PacketPool& pool, PacketFifo& q) {
  std::vector<PacketHandle> out;
  while (!q.empty()) out.push_back(pool.dequeue(q));
  return out;
}

TEST(PacketFifoTest, QueuesSharingOnePoolKeepTheirOwnOrder) {
  PacketPool pool;
  PacketFifo q[3];
  std::vector<PacketHandle> pushed[3];
  // Interleave the pushes so neighbouring slots land in different queues.
  for (int i = 0; i < 30; ++i) {
    const PacketHandle h = pool.acquire();
    pool.enqueue(q[i % 3], h);
    pushed[i % 3].push_back(h);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(drain(pool, q[k]), pushed[k]) << "queue " << k;
    EXPECT_EQ(q[k].head, kInvalidPacketHandle);
    EXPECT_EQ(q[k].tail, kInvalidPacketHandle);
  }
}

TEST(PacketFifoTest, SizeFollowsMixedPushesAndPops) {
  PacketPool pool;
  PacketFifo q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  for (int i = 0; i < 5; ++i) pool.enqueue(q, pool.acquire());
  EXPECT_EQ(q.size(), 5u);
  (void)pool.dequeue(q);
  (void)pool.dequeue(q);
  EXPECT_EQ(q.size(), 3u);
  pool.enqueue(q, pool.acquire());
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) (void)pool.dequeue(q);
  EXPECT_TRUE(q.empty());
  // An emptied queue starts over cleanly.
  const PacketHandle h = pool.acquire();
  pool.enqueue(q, h);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.head, h);
  EXPECT_EQ(q.tail, h);
}

TEST(PacketFifoTest, OrderSurvivesRecyclingByOtherQueues) {
  PacketPool pool;
  PacketFifo kept;
  PacketFifo churn;
  std::vector<PacketHandle> expected;
  for (int round = 0; round < 50; ++round) {
    const PacketHandle h = pool.acquire();
    pool.enqueue(kept, h);
    expected.push_back(h);
    // Another queue acquires, queues, pops and releases its packets, so
    // recycled handles are relinked right beside the kept queue's slots.
    for (int i = 0; i < 3; ++i) pool.enqueue(churn, pool.acquire());
    for (int i = 0; i < 3; ++i) pool.release(pool.dequeue(churn));
  }
  EXPECT_GT(pool.recycled(), 0u);
  EXPECT_EQ(kept.size(), expected.size());
  EXPECT_EQ(drain(pool, kept), expected);
}

TEST(PacketFifoTest, DeepQueueAllocatesNothingOnceReserved) {
  // Deeper than any per-queue reservation the output queues ever made
  // (queue_capacity or node_count entries): the queue's storage is the
  // pool's, so only the pool's reservation matters.
  constexpr std::size_t kDepth = 10'000;
  PacketPool pool;
  pool.reserve(kDepth);
  PacketFifo q;
  std::size_t popped = 0;
  bool in_order = true;
  const util::AllocGuard guard;
  for (std::size_t i = 0; i < kDepth; ++i) {
    const PacketHandle h = pool.acquire();
    pool.at(h).id = i;
    pool.enqueue(q, h);
  }
  const std::size_t depth = q.size();
  while (!q.empty()) {
    const PacketHandle h = pool.dequeue(q);
    in_order = in_order && pool.at(h).id == popped;
    ++popped;
    pool.release(h);
  }
  EXPECT_EQ(guard.allocations(), 0u);
  EXPECT_EQ(guard.bytes(), 0u);
  EXPECT_EQ(depth, kDepth);
  EXPECT_EQ(popped, kDepth);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(pool.in_use(), 0u);
}

}  // namespace
}  // namespace arpanet::sim
