// Bounded memory over a long replay: a segment lives until its replica has
// applied it, and a wire frame until every subscriber has acknowledged it.
// One cluster ships over a million records to an in-process backup and to a
// backup subscribed over loopback TCP. At a quarter, half and all of the
// run, the segments each lane still holds, the frames the ship server still
// retains, and the shipping arena's live slabs must sit under caps that do
// not depend on how long the run is. Retaining anything per shipped record
// (what every layer did before) blows all three caps by the first check.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "api/cluster.h"
#include "common/arena.h"
#include "net/ship_server.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

constexpr std::uint64_t kRecords = std::uint64_t{1} << 20;
constexpr std::uint64_t kWritesPerTxn = 16;
constexpr std::uint64_t kTxns = kRecords / kWritesPerTxn;
constexpr std::uint64_t kKeys = 4096;
constexpr std::size_t kSegmentRecords = 256;
// The primary waits for both backups every kPaceTxns transactions, so what
// is live at a check is the shipping pipeline's working set, not a backlog.
constexpr std::uint64_t kPaceTxns = 512;

// Caps, independent of kRecords. One pacing window ships
// kPaceTxns * kWritesPerTxn / kSegmentRecords = 32 segments.
constexpr std::size_t kMaxHeldSegments = 64;
// Up to SocketSegmentSource::kAckEvery released but unacknowledged, plus
// the window in flight.
constexpr std::size_t kMaxRetainedFrames = 256;
// Each live segment pins at most a few 16 KiB rope chunks of 64 KiB slabs.
constexpr std::uint64_t kMaxLiveSlabs = 256;

std::uint64_t LiveSlabs() {
  return ShippingArena().SlabsAllocated() - ShippingArena().SlabsFree();
}

TEST(SoakTest, ShippingMemoryStaysBoundedOverAMillionRecords) {
  ClusterOptions options;
  options.WithWorkers(2).WithSegmentRecords(kSegmentRecords);
  options.protocol.gc_every = 16;  // keep the backups' version chains short
  options.AddBackup({.protocol = core::ProtocolKind::kC5});
  options.AddBackup({.protocol = core::ProtocolKind::kC5, .via_socket = true});
  Cluster cluster(options);
  const TableId table = cluster.CreateTable("kv", kKeys);
  cluster.Start();
  ASSERT_NE(cluster.ship_server(), nullptr);

  const auto wait_for_backups = [&](Timestamp ts) {
    cluster.Flush();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (std::size_t b = 0; b < cluster.num_backups(); ++b) {
      while (cluster.backup(b).VisibleTimestamp() < ts) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "backup " << b << " never covered ts " << ts;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  };

  int checks = 0;
  const auto check = [&](const char* when) {
    SCOPED_TRACE(when);
    for (std::size_t b = 0; b < cluster.num_backups(); ++b) {
      EXPECT_LE(cluster.HeldSegments(b), kMaxHeldSegments) << "backup " << b;
    }
    EXPECT_LE(cluster.ship_server()->retained_frames(), kMaxRetainedFrames)
        << "of " << cluster.ship_server()->frames_published() << " published";
    EXPECT_LE(LiveSlabs(), kMaxLiveSlabs)
        << "of " << ShippingArena().SlabsAllocated() << " ever allocated";
    ++checks;
  };

  Timestamp last = 0;
  for (std::uint64_t n = 0; n < kTxns; ++n) {
    const Status s = cluster.ExecuteWithRetry(
        [&](txn::Txn& txn) {
          for (std::uint64_t w = 0; w < kWritesPerTxn; ++w) {
            const Key key = (n * kWritesPerTxn + w) % kKeys;
            const Status st = txn.Put(table, key, workload::EncodeIntValue(n));
            if (!st.ok()) return st;
          }
          return Status::Ok();
        },
        &last);
    ASSERT_TRUE(s.ok()) << s.message();
    if ((n + 1) % kPaceTxns == 0) wait_for_backups(last);
    if (n + 1 == kTxns / 4) check("25% of the records");
    if (n + 1 == kTxns / 2) check("50% of the records");
  }
  wait_for_backups(last);
  check("100% of the records");
  EXPECT_EQ(checks, 3);
  EXPECT_GT(ShippingArena().SlabsRecycled(), 0u) << "no slab was ever reused";

  cluster.StopPrimary();
  cluster.WaitForBackups();
  EXPECT_EQ(cluster.backup(1).replica().stats().applied_writes.load(),
            kRecords);
  cluster.Shutdown();
}

}  // namespace
}  // namespace c5
