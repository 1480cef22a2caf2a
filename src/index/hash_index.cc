#include "index/hash_index.h"

#include <bit>
#include <cassert>

#include "common/bits.h"

namespace c5::index {

HashIndex::HashIndex(std::size_t initial_capacity_per_shard, int shard_count) {
  shard_count_ = static_cast<int>(NextPow2(
      static_cast<std::size_t>(shard_count < 1 ? 1 : shard_count)));
  shard_shift_ = 64 - std::countr_zero(
                          static_cast<std::uint64_t>(shard_count_));
  shards_ = std::make_unique<Shard[]>(shard_count_);
  const std::size_t cap = NextPow2(initial_capacity_per_shard < 8
                                       ? 8
                                       : initial_capacity_per_shard);
  for (int i = 0; i < shard_count_; ++i) {
    shards_[i].slots.resize(cap);
  }
}

void HashIndex::Shard::Grow() { RehashLocked(slots.size() * 2); }

void HashIndex::Shard::RehashLocked(std::size_t new_capacity) {
  std::vector<Slot> old = std::move(slots);
  slots.assign(new_capacity, Slot{});
  size = 0;
  occupied = 0;
  for (const Slot& s : old) {
    if (s.key != kEmpty && s.key != kTombstone) {
      InsertLocked(s.key, s.row, s.ts, Mode::kKeepExisting);
    }
  }
}

void HashIndex::Reserve(std::size_t expected_keys) {
  // Per-shard capacity such that the expected load stays under ~50%, well
  // below the 75% Grow() trigger even with hash skew across shards.
  const std::size_t per_shard =
      (expected_keys + static_cast<std::size_t>(shard_count_) - 1) /
      static_cast<std::size_t>(shard_count_);
  const std::size_t target = NextPow2(per_shard < 4 ? 8 : per_shard * 2);
  for (int i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    SpinLockGuard lock(shard.lock);
    if (shard.slots.size() < target) shard.RehashLocked(target);
  }
}

bool HashIndex::Shard::InsertLocked(std::uint64_t stored_key, RowId row,
                                    Timestamp ts, Mode mode) {
  if ((occupied + 1) * 4 >= slots.size() * 3) Grow();  // 75% load factor
  const std::size_t mask = slots.size() - 1;
  std::size_t idx = HashIndex::HashKey(stored_key) & mask;
  std::size_t first_tombstone = slots.size();
  while (true) {
    Slot& s = slots[idx];
    if (s.key == stored_key) {
      switch (mode) {
        case Mode::kKeepExisting:
          return false;
        case Mode::kOverwrite:
          break;
        case Mode::kIfNewer:
          if (ts < s.ts) return false;
          break;
      }
      s.row = row;
      s.ts = ts;
      return true;
    }
    if (s.key == kTombstone && first_tombstone == slots.size()) {
      first_tombstone = idx;
    }
    if (s.key == kEmpty) {
      Slot& target =
          first_tombstone != slots.size() ? slots[first_tombstone] : s;
      const bool reused_tombstone = first_tombstone != slots.size();
      target.key = stored_key;
      target.row = row;
      target.ts = ts;
      ++size;
      if (!reused_tombstone) ++occupied;
      return true;
    }
    idx = (idx + 1) & mask;
  }
}

const HashIndex::Shard::Slot* HashIndex::Shard::FindLocked(
    std::uint64_t stored_key) const {
  const std::size_t mask = slots.size() - 1;
  std::size_t idx = HashIndex::HashKey(stored_key) & mask;
  while (true) {
    const Slot& s = slots[idx];
    if (s.key == stored_key) return &s;
    if (s.key == kEmpty) return nullptr;
    idx = (idx + 1) & mask;
  }
}

bool HashIndex::Shard::EraseLocked(std::uint64_t stored_key) {
  const std::size_t mask = slots.size() - 1;
  std::size_t idx = HashIndex::HashKey(stored_key) & mask;
  while (true) {
    Slot& s = slots[idx];
    if (s.key == stored_key) {
      s.key = kTombstone;
      s.row = kInvalidRowId;
      s.ts = 0;
      --size;
      return true;
    }
    if (s.key == kEmpty) return false;
    idx = (idx + 1) & mask;
  }
}

bool HashIndex::Insert(Key key, RowId row) {
  Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  return shard.InsertLocked(key + 2, row, 0, Shard::Mode::kKeepExisting);
}

void HashIndex::Upsert(Key key, RowId row) {
  Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  shard.InsertLocked(key + 2, row, 0, Shard::Mode::kOverwrite);
}

bool HashIndex::UpsertIfNewer(Key key, RowId row, Timestamp ts) {
  Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  return shard.InsertLocked(key + 2, row, ts, Shard::Mode::kIfNewer);
}

std::optional<RowId> HashIndex::Lookup(Key key) const {
  const Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  const Shard::Slot* s = shard.FindLocked(key + 2);
  if (s == nullptr) return std::nullopt;
  return s->row;
}

std::optional<std::pair<RowId, Timestamp>> HashIndex::LookupWithTs(
    Key key) const {
  const Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  const Shard::Slot* s = shard.FindLocked(key + 2);
  if (s == nullptr) return std::nullopt;
  return std::make_pair(s->row, s->ts);
}

bool HashIndex::Erase(Key key) {
  Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  return shard.EraseLocked(key + 2);
}

void HashIndex::ForEach(
    const std::function<void(Key, RowId, Timestamp)>& fn) const {
  for (int i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    SpinLockGuard lock(shard.lock);
    for (const Shard::Slot& slot : shard.slots) {
      if (slot.key != Shard::kEmpty && slot.key != Shard::kTombstone) {
        fn(slot.key - 2, slot.row, slot.ts);
      }
    }
  }
}

std::size_t HashIndex::Size() const {
  std::size_t total = 0;
  for (int i = 0; i < shard_count_; ++i) {
    SpinLockGuard lock(shards_[i].lock);
    total += shards_[i].size;
  }
  return total;
}

}  // namespace c5::index
