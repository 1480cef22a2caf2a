#ifndef C5_COMMON_TYPES_H_
#define C5_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace c5 {

// Logical commit timestamp. For the MVTSO (Cicada-like) engine this is the
// transaction's multi-version timestamp; for the 2PL (MyRocks-like) engine it
// is the commit LSN. In both cases the replication log is totally ordered by
// this value and per-row write order in the log equals per-row timestamp
// order, which is the invariant C5's prev-timestamp check relies on.
using Timestamp = std::uint64_t;

// Timestamp 0 is reserved: it means "no prior version" (a row's first write
// has prev_timestamp == 0).
inline constexpr Timestamp kInvalidTimestamp = 0;
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();

// Identifies a table within a Database.
using TableId = std::uint32_t;

// Physical row slot within a table (Cicada's "row ID": an index into the
// storage engine's array). Externally meaningful keys map to row ids through
// a per-table index.
using RowId = std::uint64_t;

inline constexpr RowId kInvalidRowId = std::numeric_limits<RowId>::max();

// A row's name across tables: the key of every per-row map that spans tables
// (the C5 schedulers' last-write maps, KuaFu's last-writer map, the
// granularity replica's key queues, the 2PL lock table). Unique for row ids
// below 2^56: tables are few and rows are dense array indices.
inline std::uint64_t RowName(TableId table, RowId row) {
  return (static_cast<std::uint64_t>(table) << 56) | row;
}

// Externally meaningful primary key. Composite TPC-C keys are encoded into
// this 64-bit space (see workload/tpcc_keys.h).
using Key = std::uint64_t;

// Row payloads are opaque byte strings.
using Value = std::string;

// A write operation's kind, as recorded in the replication log.
enum class OpType : std::uint8_t {
  kInsert = 0,
  kUpdate = 1,
  kDelete = 2,
};

inline const char* ToString(OpType op) {
  switch (op) {
    case OpType::kInsert:
      return "INSERT";
    case OpType::kUpdate:
      return "UPDATE";
    case OpType::kDelete:
      return "DELETE";
  }
  return "UNKNOWN";
}

}  // namespace c5

#endif  // C5_COMMON_TYPES_H_
