#include "api/snapshot.h"

#include <cstring>

namespace c5 {

Snapshot::Snapshot(replica::ReplicaBase* replica)
    : replica_(replica),
      guard_(&replica->db().epochs()),
      scope_(&replica->readers_) {
  // Pin AFTER registering (the tracker holds the conservative floor until
  // Set), so GC can never compute a horizon above this snapshot between
  // timestamp assignment and registration.
  ts_ = replica_->VisibleTimestamp();
  scope_.Set(ts_);
  replica_->stats_.read_only_txns.fetch_add(1, std::memory_order_relaxed);
}

const storage::Version* Snapshot::ReadVersion(TableId table, Key key) const {
  const auto row = replica_->db().index(table).Lookup(key);
  if (!row.has_value()) return nullptr;
  replica_->PrepareRowRead(table, *row, ts_);
  return replica_->db().table(table).ReadAt(*row, ts_);
}

Status Snapshot::Get(TableId table, Key key, Value* out) const {
  const storage::Version* v = ReadVersion(table, key);
  if (v == nullptr || v->deleted) return Status::NotFound();
  out->assign(v->value());
  return Status::Ok();
}

std::vector<Status> Snapshot::MultiGet(TableId table,
                                       const std::vector<Key>& keys,
                                       std::vector<Value>* out) const {
  std::vector<Status> statuses;
  statuses.reserve(keys.size());
  out->assign(keys.size(), Value());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const storage::Version* v = ReadVersion(table, keys[i]);
    if (v == nullptr || v->deleted) {
      statuses.push_back(Status::NotFound());
    } else {
      (*out)[i].assign(v->value());
      statuses.push_back(Status::Ok());
    }
  }
  return statuses;
}

Snapshot::Iterator::Iterator(const Snapshot* snap, TableId table,
                             index::OrderedIndex::Cursor cursor)
    : snap_(snap), table_(table), cursor_(cursor) {
  Settle();
}

void Snapshot::Iterator::Settle() {
  storage::Table& tbl = snap_->replica_->db().table(table_);
  while (cursor_.Valid()) {
    const RowId row = cursor_.row();
    // The binding can be erased between the cursor's own settle and this
    // re-load; treat it like any other key that is dead at the snapshot.
    if (row != kInvalidRowId) {
      snap_->replica_->PrepareRowRead(table_, row, snap_->ts_);
      const storage::Version* v = tbl.ReadAt(row, snap_->ts_);
      if (v != nullptr && !v->deleted) {
        value_ = v->value();
        return;
      }
    }
    cursor_.Next();
  }
  value_ = {};
}

Snapshot::Iterator Snapshot::Scan(TableId table, Key lo, Key hi) const {
  // Streams straight off the ordered index: positioning is O(log n), each
  // advance touches one binding, and nothing is materialized. Index entries
  // bound concurrently with the scan may or may not appear — either way
  // their versions lie above ts_ and would be skipped.
  return Iterator(this, table, replica_->db().ordered_index(table).Seek(lo, hi));
}

AggResult Snapshot::Aggregate(TableId table, Key lo, Key hi,
                              const AggSpec& spec) const {
  AggResult r;
  const bool needs_field =
      spec.op != AggOp::kCount || spec.filter_below.has_value();
  storage::Database& db = replica_->db();
  storage::Table& tbl = db.table(table);
  for (auto c = db.ordered_index(table).Seek(lo, hi); c.Valid(); c.Next()) {
    if (spec.key_filter != nullptr &&
        !spec.key_filter(c.key(), spec.key_filter_ctx)) {
      continue;
    }
    const RowId row = c.row();
    if (row == kInvalidRowId) continue;
    replica_->PrepareRowRead(table, row, ts_);
    const storage::Version* v = tbl.ReadAt(row, ts_);
    if (v == nullptr || v->deleted) continue;
    if (!needs_field) {
      ++r.rows;
      continue;
    }
    const std::string_view payload = v->value();
    if (payload.size() <
        static_cast<std::size_t>(spec.field_offset) + spec.field_width) {
      continue;
    }
    std::uint64_t field = 0;
    std::memcpy(&field, payload.data() + spec.field_offset, spec.field_width);
    if (spec.filter_below.has_value() && field >= *spec.filter_below) continue;
    ++r.rows;
    r.sum += field;
    if (field < r.min) r.min = field;
    if (field > r.max) r.max = field;
  }
  return r;
}

}  // namespace c5
