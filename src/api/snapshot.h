// c5::Snapshot — the public read surface over a backup replica.
//
// A Snapshot is an RAII read-only transaction: opening one
//  (1) enters the database's epoch critical section (GC cannot reclaim any
//      version the snapshot might traverse),
//  (2) registers the reader with the replica's active-reader tracker (the
//      GC horizon respects the pinned timestamp), and
//  (3) pins the replica's visible timestamp.
// Every read through the handle observes exactly that
// monotonic-prefix-consistent state, however long the handle lives and
// however far the replica advances meanwhile.
//
// Reads: Get (point), MultiGet (batch at one snapshot), Scan (ordered
// iterator over a key range). Scan values are zero-copy string_views into
// version payloads, valid while the Snapshot is open.
//
// Lazy protocols hook in through ReplicaBase::PrepareRowRead: Query Fresh
// materializes a row's pending redo list the first time a snapshot read
// touches the row, so deferred-execution cost is charged to the reader —
// on this path, exactly as §9 describes.
//
// Lifetime: a Snapshot must not outlive its replica, and iterators must not
// outlive their Snapshot. Snapshots are neither copyable nor movable — they
// are scoped RAII handles returned through guaranteed copy elision
// (`Snapshot s = replica.OpenSnapshot();` works; storing them in containers
// does not). Opening one is allocation-free: point reads through
// a fresh Snapshot stay off the heap, preserving the replay/read hot-path
// discipline (docs/PERFORMANCE.md). Open handles hold back garbage
// collection — scope them tightly on GC-enabled replicas.

#ifndef C5_API_SNAPSHOT_H_
#define C5_API_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "index/ordered_index.h"
#include "replica/replica.h"
#include "storage/epoch.h"
#include "txn/active_txn_tracker.h"

namespace c5 {

// Aggregation pushdown over a key range (Snapshot::Aggregate): the aggregate
// is evaluated inside the ordered-index walk — no keys, rows, or values are
// materialized — so a backup can answer analytical range queries (TPC-C
// stock-level style) in one pass at index-walk cost.
enum class AggOp : std::uint8_t { kCount, kSum, kMin, kMax };

struct AggSpec {
  AggOp op = AggOp::kCount;
  // For kSum/kMin/kMax (and filter_below): the aggregated field is a
  // little-endian unsigned integer of `field_width` bytes (4 or 8) at byte
  // `field_offset` of the row payload — matching the memcpy'd POD row
  // encodings (workload/tpcc_schema.h). Rows too short for the field are
  // skipped.
  std::uint32_t field_offset = 0;
  std::uint32_t field_width = 8;
  // Predicate pushed into the same walk: when set, only rows whose field is
  // strictly below the bound participate (stock-level's quantity threshold).
  std::optional<std::uint64_t> filter_below;
  // Key-level predicate, checked before any row work. Plain function
  // pointer + context (not std::function) so building a spec stays
  // allocation-free. ShardedCluster uses it to restrict each shard's walk
  // to the keys that shard OWNS — during a migration's copy window moving
  // keys exist on source and destination, and without the filter the
  // cross-shard merge would double-count them.
  bool (*key_filter)(Key key, void* ctx) = nullptr;
  void* key_filter_ctx = nullptr;
};

// All four aggregates come from the same walk, so whenever the walk decodes
// the field (op != kCount, or filter_below set) they are all reported;
// `value()` projects the one the spec asked for. A pure unfiltered kCount
// never touches payload bytes, so only `rows` is meaningful there, and
// min/max are meaningful only when rows > 0.
struct AggResult {
  std::uint64_t rows = 0;  // live rows that matched at the snapshot
  std::uint64_t sum = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;

  std::uint64_t value(AggOp op) const {
    switch (op) {
      case AggOp::kCount: return rows;
      case AggOp::kSum: return sum;
      case AggOp::kMin: return min;
      case AggOp::kMax: return max;
    }
    return 0;
  }

  // Cross-shard combine (ShardedCluster::Aggregate): every AggOp is
  // decomposable, so per-shard partials merge losslessly.
  void Merge(const AggResult& o) {
    rows += o.rows;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
  }
};

class Snapshot {
 public:
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  Snapshot(Snapshot&&) = delete;
  Snapshot& operator=(Snapshot&&) = delete;

  // The pinned visible timestamp all reads observe.
  Timestamp timestamp() const { return ts_; }

  // Point read. kNotFound when the key is absent or deleted at the snapshot.
  Status Get(TableId table, Key key, Value* out) const;

  // Batch point read at the same snapshot. out->at(i) is valid iff the
  // returned statuses[i].ok(); a kNotFound entry is a successful "absent".
  std::vector<Status> MultiGet(TableId table, const std::vector<Key>& keys,
                               std::vector<Value>* out) const;

  // Ordered iterator over the live keys of `table` in [lo, hi), ascending.
  // Keys deleted (or never written) at the snapshot are skipped. The
  // iterator borrows the Snapshot; advance with Next() while Valid().
  //
  // Streaming: the iterator walks the table's ordered index directly and
  // resolves one version per step — nothing is materialized up front, so a
  // Scan costs O(1) allocations however wide the range (the PR-10 fix for
  // the CollectRange-backed iterator, which copied and sorted the entire
  // match set before the first Next()).
  //
  //   for (auto it = snap.Scan(t, lo, hi); it.Valid(); it.Next())
  //     use(it.key(), it.value());
  class Iterator {
   public:
    bool Valid() const { return cursor_.Valid(); }
    Key key() const { return cursor_.key(); }
    // View into the version payload; valid while the Snapshot is open.
    std::string_view value() const { return value_; }
    void Next() {
      cursor_.Next();
      Settle();
    }

   private:
    friend class Snapshot;
    Iterator(const Snapshot* snap, TableId table,
             index::OrderedIndex::Cursor cursor);
    // Skips forward to the next key with a live version at the snapshot.
    void Settle();

    const Snapshot* snap_;
    TableId table_;
    index::OrderedIndex::Cursor cursor_;
    std::string_view value_;
  };

  Iterator Scan(TableId table, Key lo, Key hi) const;

  // Aggregation pushdown: folds the live rows of [lo, hi) at the snapshot
  // into an AggResult inside the index walk (see AggSpec). Same visibility
  // rules as Scan; allocation-free.
  AggResult Aggregate(TableId table, Key lo, Key hi, const AggSpec& spec) const;

 private:
  friend class replica::ReplicaBase;

  explicit Snapshot(replica::ReplicaBase* replica);

  // Resolves key -> live version at ts_ through the replica's index,
  // running the lazy-instantiation hook first. nullptr when absent;
  // tombstones are returned (callers check deleted).
  const storage::Version* ReadVersion(TableId table, Key key) const;

  replica::ReplicaBase* replica_;
  // Inline registration slots — opening a snapshot allocates nothing.
  storage::EpochManager::Guard guard_;
  txn::ActiveTxnTracker::Scope scope_;
  Timestamp ts_ = 0;
};

}  // namespace c5

namespace c5::replica {

inline c5::Snapshot ReplicaBase::OpenSnapshot() { return c5::Snapshot(this); }

}  // namespace c5::replica

#endif  // C5_API_SNAPSHOT_H_
