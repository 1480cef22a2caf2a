// Debug-build lock-rank registry: the dynamic complement to the Clang
// Thread Safety Annotations (common/thread_annotations.h).
//
// Every lock in src/ is constructed with a LockRank drawn from the ONE
// canonical ordering below (documented with rationale in
// docs/ARCHITECTURE.md, "Lock ranking"). Each thread keeps a small
// thread-local stack of the locks it currently holds; acquisitions and
// releases are checked against three rules, and any violation aborts the
// process immediately with a diagnostic:
//
//  1. No self-reentry: acquiring a lock already held by this thread aborts
//     (the locks here are non-reentrant; the PR-6 HashIndex::ForEach ->
//     ReadKeyAt self-deadlock class now dies deterministically instead of
//     hanging until a test happens to interleave it).
//  2. Monotonic ranks: a blocking acquisition's rank must be STRICTLY
//     greater than the rank of every lock already held. Two locks of equal
//     rank may never be held together (so an AB/BA inversion between peer
//     shards aborts too) — with one exception: SHARED (reader) acquisitions
//     may stack at the same rank, which is the scatter-gather "all shard
//     gates shared, in index order" pattern (readers never block readers,
//     and the only exclusive acquirer takes exactly one gate).
//  3. LIFO release: unlock must release the most recently acquired lock.
//     Releasing out of order aborts, except releases within a top run of
//     equal-rank shared holds (rule 2's exception, where order is
//     meaningless).
//
// try_lock never blocks, so it cannot deadlock: a successful try-acquire is
// pushed onto the stack (it IS held, and must still be released in LIFO
// order) but is exempt from rules 1 and 2 — spinning on try_lock against a
// lock the thread already holds simply keeps failing, which is well-defined
// for our primitives and is relied on by QueryFreshReplica's optimistic
// instantiation conflict path.
//
// Compiled out in release: when C5_LOCK_RANK_ENABLED is 0 every hook is an
// empty inline function, locks carry no rank member (sizeof(SpinLock) == 1),
// and lock_rank_test's static asserts prove it. CMake turns the registry on
// for every build type except Release/MinSizeRel (see C5_LOCK_RANK in
// CMakeLists.txt), so the default dev build, the DST sweeps, and all
// sanitizer lanes run with it active.

#ifndef C5_COMMON_LOCK_RANK_H_
#define C5_COMMON_LOCK_RANK_H_

#include <cstdint>

#ifndef C5_LOCK_RANK_ENABLED
// Non-CMake consumers: follow the build's assert setting.
#ifdef NDEBUG
#define C5_LOCK_RANK_ENABLED 0
#else
#define C5_LOCK_RANK_ENABLED 1
#endif
#endif

namespace c5 {

// The canonical lock ordering, outermost (acquired first) to innermost.
// Numeric gaps are deliberate so future locks slot in without renumbering.
// Any change here must update the table in docs/ARCHITECTURE.md.
enum class LockRank : std::uint8_t {
  // ShardedCluster per-shard migration gates: held shared across a whole
  // routed transaction / scatter-gather read, exclusive across a cutover —
  // everything else nests inside.
  kShardGate = 10,
  // Cluster-level bookkeeping: TapSet fan-out lock (held while forwarding a
  // commit to attached taps), ShardedCluster transition journal.
  kClusterState = 20,
  // ShardRouter epoch/fence state (queried under a gate during routing).
  kRouter = 30,
  // Log collectors: OnlineLogCollector sequencer, PerThreadLogCollector
  // shards, BufferCollector (a migration tap's sink, reached under
  // kClusterState).
  kCollector = 40,
  // LockManager shard tables (the 2PL engine's row-lock metadata).
  kTxnLockShard = 45,
  // Per-replica scheduler/worker structures: key queues, row pending lists,
  // dependency-graph children lists, batch pools.
  kReplicaState = 50,
  // Hand-off queues and transport state: MpmcQueue and C5-MyRocks's
  // TxnDispatchQueue (held only to move items; their consumers park on an
  // EventCount with the mutex released), ShipServer (its tx threads wait on
  // a CondVar under it), SocketSegmentSource.
  kQueue = 55,
  // Storage growth latches (Table chunk growth, row-state map growth).
  kStorage = 60,
  // HashIndex shards. Acquired during apply while kReplicaState is held;
  // never nested with another index shard (rule 2 makes ForEach-reentry
  // abort).
  kIndexShard = 65,
  // EpochManager retired list (deleters run OUTSIDE it).
  kEpochRetired = 70,
  // SlabArena per-shard bump cursors; the freelist nests inside them.
  kArenaShard = 80,
  kArenaFree = 85,
  // Diagnostics sinks: apply-latency histograms, lag trackers.
  kStats = 90,
  // Default for locks that protect a self-contained leaf (and for tests):
  // may be acquired while holding anything, but nothing may be acquired
  // inside it.
  kLeaf = 250,
};

// Human-readable rank name for abort diagnostics.
const char* LockRankName(LockRank rank);

namespace lock_rank {

#if C5_LOCK_RANK_ENABLED

// Blocking acquisition about to start: enforce rules 1 and 2, then record.
// `shared` marks reader-mode holds (rule 2's equal-rank exception).
void OnAcquire(const void* lock, LockRank rank, bool shared = false);

// Successful try-acquire: record only (exempt from rules 1 and 2).
void OnTryAcquire(const void* lock, LockRank rank, bool shared = false);

// Release: enforce rule 3, then forget the hold.
void OnRelease(const void* lock);

// True if this thread currently holds `lock` (test hook).
bool HeldByThisThread(const void* lock);

// Number of locks this thread currently holds (test hook).
int HeldCount();

#else

inline void OnAcquire(const void*, LockRank, bool = false) {}
inline void OnTryAcquire(const void*, LockRank, bool = false) {}
inline void OnRelease(const void*) {}
inline bool HeldByThisThread(const void*) { return false; }
inline int HeldCount() { return 0; }

#endif  // C5_LOCK_RANK_ENABLED

}  // namespace lock_rank
}  // namespace c5

#endif  // C5_COMMON_LOCK_RANK_H_
