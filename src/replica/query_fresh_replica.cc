#include "replica/query_fresh_replica.h"

#include "common/spin_lock.h"

namespace c5::replica {

QueryFreshReplica::RowStateMap::RowStateMap()
    : chunks_(new std::atomic<Chunk*>[kMaxChunks]) {
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

QueryFreshReplica::RowState* QueryFreshReplica::RowStateMap::GetOrCreate(
    RowId row) {
  const std::size_t chunk_idx = row >> kChunkBits;
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    SpinLockGuard lock(grow_mu_);
    chunk = chunks_[chunk_idx].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      chunks_[chunk_idx].store(chunk, std::memory_order_release);
    }
  }
  RowId cur = max_row_.load(std::memory_order_relaxed);
  while (cur < row + 1 && !max_row_.compare_exchange_weak(
                              cur, row + 1, std::memory_order_acq_rel)) {
  }
  return &chunk->rows[row & (kChunkSize - 1)];
}

QueryFreshReplica::RowState* QueryFreshReplica::RowStateMap::Find(
    RowId row) const {
  const std::size_t chunk_idx = row >> kChunkBits;
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_acquire);
  return chunk == nullptr ? nullptr : &chunk->rows[row & (kChunkSize - 1)];
}

QueryFreshReplica::RowStateMap::~RowStateMap() {
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    delete chunks_[i].load(std::memory_order_relaxed);
  }
}

QueryFreshReplica::QueryFreshReplica(storage::Database* db, Options options,
                                     LagTracker* lag)
    : ReplicaBase(db, lag), options_(options) {}

void QueryFreshReplica::Start(log::SegmentSource* source) {
  // Schema is fixed before replication starts (§2.2: DDL is out of scope).
  row_maps_.resize(db_->NumTables());
  for (auto& map : row_maps_) {
    if (map == nullptr) map = std::make_unique<RowStateMap>();
  }
  ingest_thread_ = std::thread([this, source] { IngestLoop(source); });
}

void QueryFreshReplica::IngestLoop(log::SegmentSource* source) {
  while (log::LogSegment* seg = source->Next()) {
    for (const log::LogRecord& rec : seg->records()) {
      storage::Table& table = db_->table(rec.table);
      table.EnsureRow(rec.row);
      RowState* state = row_maps_[rec.table]->GetOrCreate(rec.row);
      // Query Fresh maintains indirection eagerly so readers can resolve
      // keys before any row data is instantiated. Version chains are built
      // lazily, so "row has state" is "row has pending or applied records",
      // not a chain probe.
      db_->BindIfCreating(
          rec.table, rec.key, rec.row, rec.op, rec.commit_ts,
          state->appended.load(std::memory_order_relaxed) != 0);
      PendingNode* node = arena_.New();
      node->rec = &rec;
      node->next = nullptr;
      {
        SpinLockGuard lock(state->mu);
        if (state->tail == nullptr) {
          state->head = node;
        } else {
          state->tail->next = node;
        }
        state->tail = node;
        state->appended.fetch_add(1, std::memory_order_release);
      }
      backlog_.fetch_add(1, std::memory_order_acq_rel);
      if (rec.last_in_txn) {
        // Visibility advances at indexing time: a read arriving now WOULD
        // see this transaction (after paying its deferred execution).
        stats_.applied_txns.fetch_add(1, std::memory_order_relaxed);
        PublishVisible(rec.commit_ts);
      }
    }
  }
  ingest_done_.store(true, std::memory_order_release);
}

void QueryFreshReplica::InstantiateRow(TableId table, RowId row,
                                       Timestamp ts) {
  if (table >= row_maps_.size()) return;
  RowState* state = row_maps_[table]->Find(row);
  if (state == nullptr) return;
  // Latch-free fast path: nothing pending for this row.
  if (state->applied.load(std::memory_order_acquire) >=
      state->appended.load(std::memory_order_acquire)) {
    return;
  }

  // Optimistic serialization (§9): if another reader is instantiating this
  // row, count a conflict and retry (spin) rather than queueing politely.
  int spins = 0;
  while (!state->mu.try_lock()) {
    instantiation_conflicts_.fetch_add(1, std::memory_order_relaxed);
    SpinBackoff(spins);
  }
  storage::Table& t = db_->table(table);
  std::uint64_t applied = 0;
  while (state->head != nullptr && state->head->rec->commit_ts <= ts) {
    const log::LogRecord& rec = *state->head->rec;
    // Install-if-newer (the row latch orders this row's installs): records
    // already covered by the row's recovered state are skipped, which keeps
    // at-least-once delivery / checkpoint resume idempotent.
    t.TryInstallIfPrev(rec.row, kInvalidTimestamp, rec.commit_ts, rec.value,
                       rec.op == OpType::kDelete);
    state->head = state->head->next;
    ++applied;
  }
  if (state->head == nullptr) state->tail = nullptr;
  state->applied.fetch_add(applied, std::memory_order_release);
  state->mu.unlock();
  if (applied > 0) {
    backlog_.fetch_sub(applied, std::memory_order_acq_rel);
    stats_.applied_writes.fetch_add(applied, std::memory_order_relaxed);
  }
}

void QueryFreshReplica::PrepareRowRead(TableId table, RowId row,
                                       Timestamp ts) {
  // The deferred execution the paper's lazy f_b definition charges to the
  // protocol happens here, on the reader's critical path: every Snapshot
  // read (Get / MultiGet / Scan) funnels through this hook before touching
  // the row's version chain.
  InstantiateRow(table, row, ts);
}

void QueryFreshReplica::InstantiateAll(Timestamp ts) {
  const auto guard = db_->epochs().Enter();
  for (TableId t = 0; t < row_maps_.size(); ++t) {
    RowStateMap& map = *row_maps_[t];
    const RowId n = map.MaxRow();
    for (RowId r = 0; r < n; ++r) {
      InstantiateRow(t, r, ts);
    }
  }
}

void QueryFreshReplica::WaitUntilCaughtUp() {
  ReplicaBase::WaitUntilCaughtUp();
  if (!options_.leave_lazy_after_catchup) {
    InstantiateAll(kMaxTimestamp);
  }
}

void QueryFreshReplica::Stop() {
  if (ingest_thread_.joinable()) ingest_thread_.join();
}

}  // namespace c5::replica
