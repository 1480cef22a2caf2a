#include "storage/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "storage/epoch.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace c5::storage {

namespace {

template <typename T>
void PutInt(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool GetInt(std::string_view* in, T* v) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(v, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

}  // namespace

Status WriteCheckpoint(const Database& db, Timestamp ts,
                       const std::string& path) {
  // Serialize: body first (everything after the magic), CRC at the end.
  std::string body;
  PutInt<std::uint64_t>(&body, ts);
  PutInt<std::uint32_t>(&body, static_cast<std::uint32_t>(db.NumTables()));

  {
    // The epoch guard keeps versions from being reclaimed while we read the
    // snapshot; GC horizons are always below the visible snapshot, so the
    // reads below cannot lose their target versions.
    auto& epochs = const_cast<Database&>(db).epochs();
    const auto guard = epochs.Enter();
    for (TableId t = 0; t < db.NumTables(); ++t) {
      PutInt<std::uint32_t>(&body, t);
      // Collect the live (key, row, binding-ts) entries at ts via the index;
      // the index keeps entries for deleted rows, so tombstones are captured
      // too.
      struct Entry {
        Key key;
        RowId row;
        Timestamp bind_ts;
      };
      std::vector<Entry> entries;
      db.index(t).ForEach([&entries](Key key, RowId row, Timestamp bind_ts) {
        entries.push_back({key, row, bind_ts});
      });
      // Count entries with a version at ts first (absent rows are elided).
      std::string table_body;
      std::uint64_t count = 0;
      const Table& table = db.table(t);
      for (const auto& [key, row, bind_ts] : entries) {
        const Version* v = table.ReadAt(row, ts);
        if (v == nullptr) continue;
        PutInt<std::uint64_t>(&table_body, key);
        PutInt<std::uint64_t>(&table_body, row);
        PutInt<std::uint64_t>(&table_body, bind_ts);
        PutInt<std::uint64_t>(&table_body, v->write_ts);
        PutInt<std::uint8_t>(&table_body, v->deleted ? 1 : 0);
        PutInt<std::uint32_t>(&table_body,
                              static_cast<std::uint32_t>(v->value().size()));
        table_body.append(v->value());
        ++count;
      }
      PutInt<std::uint64_t>(&body, count);
      body.append(table_body);
    }
  }

  std::string file_bytes;
  PutInt<std::uint32_t>(&file_bytes, kCheckpointMagic);
  file_bytes.append(body);
  PutInt<std::uint32_t>(&file_bytes, Crc32c(body.data(), body.size()));

  // Atomic publish: temp file + fsync + rename.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("open failed: " + std::string(strerror(errno)));
  }
  const bool write_ok =
      std::fwrite(file_bytes.data(), 1, file_bytes.size(), f) ==
      file_bytes.size();
  bool sync_ok = std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  sync_ok = sync_ok && fsync(fileno(f)) == 0;
#endif
  std::fclose(f);
  if (!write_ok || !sync_ok) {
    std::filesystem::remove(tmp);
    return Status::Internal("checkpoint write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::Internal("checkpoint rename failed");
  return Status::Ok();
}

Status LoadCheckpoint(Database* db, const std::string& path,
                      Timestamp* checkpoint_ts) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no checkpoint at " + path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("checkpoint read failed");

  std::string_view in = bytes;
  std::uint32_t magic = 0;
  if (!GetInt(&in, &magic) || magic != kCheckpointMagic) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  if (in.size() < sizeof(std::uint32_t)) {
    return Status::InvalidArgument("truncated checkpoint");
  }
  const std::string_view body = in.substr(0, in.size() - sizeof(std::uint32_t));
  std::string_view crc_view = in.substr(body.size());
  std::uint32_t crc = 0;
  GetInt(&crc_view, &crc);
  if (Crc32c(body.data(), body.size()) != crc) {
    return Status::InvalidArgument("checkpoint CRC mismatch");
  }

  std::string_view rd = body;
  std::uint64_t ts = 0;
  std::uint32_t table_count = 0;
  if (!GetInt(&rd, &ts) || !GetInt(&rd, &table_count)) {
    return Status::InvalidArgument("malformed checkpoint header");
  }
  if (table_count != db->NumTables()) {
    return Status::InvalidArgument("checkpoint schema mismatch");
  }

  for (std::uint32_t t = 0; t < table_count; ++t) {
    std::uint32_t table_id = 0;
    std::uint64_t count = 0;
    if (!GetInt(&rd, &table_id) || !GetInt(&rd, &count) ||
        table_id >= db->NumTables()) {
      return Status::InvalidArgument("malformed checkpoint table header");
    }
    Table& table = db->table(table_id);
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t key = 0, row = 0, bind_ts = 0, write_ts = 0;
      std::uint8_t deleted = 0;
      std::uint32_t value_len = 0;
      if (!GetInt(&rd, &key) || !GetInt(&rd, &row) || !GetInt(&rd, &bind_ts) ||
          !GetInt(&rd, &write_ts) || !GetInt(&rd, &deleted) ||
          !GetInt(&rd, &value_len) || rd.size() < value_len ||
          row >= kMaxRows) {
        return Status::InvalidArgument("malformed checkpoint entry");
      }
      const std::string_view value = rd.substr(0, value_len);
      rd.remove_prefix(value_len);
      table.EnsureRow(row);
      table.InstallCommitted(row, write_ts, value, deleted != 0);
      db->BindIfNewer(table_id, key, row, bind_ts);
    }
  }
  if (!rd.empty()) {
    return Status::InvalidArgument("trailing bytes in checkpoint");
  }
  *checkpoint_ts = ts;
  return Status::Ok();
}

}  // namespace c5::storage
