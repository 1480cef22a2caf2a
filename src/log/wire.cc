#include "log/wire.h"

#include <algorithm>
#include <cstring>

namespace c5::log {

namespace {

template <typename T>
void PutInt(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));  // little-endian hosts only (x86/ARM LE)
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

void EncodeSegment(const LogSegment& segment, std::string* out) {
  std::string payload;
  payload.reserve(segment.size() * 48);
  for (const LogRecord& rec : segment.records()) {
    PutInt<std::uint32_t>(&payload, rec.table);
    PutInt<std::uint8_t>(&payload, static_cast<std::uint8_t>(rec.op));
    PutInt<std::uint8_t>(&payload, rec.last_in_txn ? 1 : 0);
    PutInt<std::uint64_t>(&payload, rec.row);
    PutInt<std::uint64_t>(&payload, rec.key);
    PutInt<std::uint64_t>(&payload, rec.commit_ts);
    PutInt<std::uint32_t>(&payload,
                          static_cast<std::uint32_t>(rec.value.size()));
    payload.append(rec.value.data(), rec.value.size());
  }

  PutInt<std::uint32_t>(out, kSegmentMagic);
  PutInt<std::uint64_t>(out, segment.base_seq());
  PutInt<std::uint32_t>(out, static_cast<std::uint32_t>(segment.size()));
  PutInt<std::uint32_t>(out, static_cast<std::uint32_t>(payload.size()));
  PutInt<std::uint32_t>(out, Crc32c(payload.data(), payload.size()));
  out->append(payload);
}

Status DecodeSegment(std::string_view bytes, std::size_t* consumed,
                     std::unique_ptr<LogSegment>* out) {
  if (bytes.size() < kSegmentHeaderBytes) {
    return Status::NotFound("end of stream");
  }
  std::string_view in = bytes;
  std::uint32_t magic = 0, record_count = 0, payload_len = 0, crc = 0;
  std::uint64_t base_seq = 0;
  GetInt(&in, &magic);
  GetInt(&in, &base_seq);
  GetInt(&in, &record_count);
  GetInt(&in, &payload_len);
  GetInt(&in, &crc);
  if (magic != kSegmentMagic) {
    return Status::InvalidArgument("bad segment magic");
  }
  if (payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("implausible payload length");
  }
  if (in.size() < payload_len) {
    return Status::InvalidArgument("truncated segment payload (torn tail)");
  }
  const std::string_view payload = in.substr(0, payload_len);
  if (Crc32c(payload.data(), payload.size()) != crc) {
    return Status::InvalidArgument("segment CRC mismatch");
  }
  // record_count sits outside the CRC: bound it before it sizes an
  // allocation.
  if (record_count > payload_len / kMinRecordBytes) {
    return Status::InvalidArgument("record_count overruns payload");
  }

  auto segment = std::make_unique<LogSegment>(base_seq);
  segment->Reserve(record_count);
  std::string_view rec_in = payload;
  for (std::uint32_t i = 0; i < record_count; ++i) {
    LogRecord rec;
    std::uint8_t op = 0, last = 0;
    std::uint32_t value_len = 0;
    if (!GetInt(&rec_in, &rec.table) || !GetInt(&rec_in, &op) ||
        !GetInt(&rec_in, &last) || !GetInt(&rec_in, &rec.row) ||
        !GetInt(&rec_in, &rec.key) || !GetInt(&rec_in, &rec.commit_ts) ||
        !GetInt(&rec_in, &value_len) || rec_in.size() < value_len) {
      return Status::InvalidArgument("malformed record in segment payload");
    }
    if (op > static_cast<std::uint8_t>(OpType::kDelete)) {
      return Status::InvalidArgument("unknown op code");
    }
    rec.op = static_cast<OpType>(op);
    rec.last_in_txn = last != 0;
    rec.prev_ts = kInvalidTimestamp;  // recomputed by the backup (§7.1)
    // View into the caller's buffer; Append internalizes the bytes into the
    // segment's own store.
    rec.value = std::string_view(rec_in.data(), value_len);
    rec_in.remove_prefix(value_len);
    segment->Append(rec);
  }
  if (!rec_in.empty()) {
    return Status::InvalidArgument("trailing bytes in segment payload");
  }

  *consumed = kSegmentHeaderBytes + payload_len;
  *out = std::move(segment);
  return Status::Ok();
}

// ---- FrameReassembler -------------------------------------------------------

void FrameReassembler::Append(const char* data, std::size_t n) {
  CompactIfWorthIt();
  buf_.append(data, n);
}

Status FrameReassembler::Poll(std::unique_ptr<LogSegment>* out) {
  const std::string_view front = Buffered();
  if (front.size() < sizeof(std::uint32_t)) {
    return Status::NotFound("need more bytes (header torn)");
  }
  std::uint32_t magic = 0;
  std::memcpy(&magic, front.data(), sizeof(magic));
  if (magic != kSegmentMagic) {
    return Status::InvalidArgument("front of stream is not a segment frame");
  }
  if (front.size() < kSegmentHeaderBytes) {
    return Status::NotFound("need more bytes (header torn)");
  }
  std::uint32_t payload_len = 0;
  std::memcpy(&payload_len,
              front.data() + kSegmentHeaderBytes - 2 * sizeof(std::uint32_t),
              sizeof(payload_len));
  if (payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("implausible payload length");
  }
  if (front.size() < kSegmentHeaderBytes + payload_len) {
    return Status::NotFound("need more bytes (payload torn)");
  }
  // The whole frame is buffered: DecodeSegment's verdict is now definitive
  // (its torn-tail case cannot fire on an exactly-sized span).
  std::size_t consumed = 0;
  const Status s = DecodeSegment(front.substr(0, kSegmentHeaderBytes +
                                                     payload_len),
                                 &consumed, out);
  if (s.ok()) pos_ += consumed;
  return s;
}

std::string_view FrameReassembler::Buffered() const {
  return std::string_view(buf_).substr(pos_);
}

void FrameReassembler::Consume(std::size_t n) {
  pos_ += std::min(n, buf_.size() - pos_);
  CompactIfWorthIt();
}

bool FrameReassembler::SkipToMagic(std::uint32_t magic) {
  char needle[sizeof(magic)];
  std::memcpy(needle, &magic, sizeof(magic));
  const std::string_view front = Buffered();
  const std::size_t at =
      front.find(std::string_view(needle, sizeof(needle)));
  if (at != std::string_view::npos) {
    pos_ += at;
    CompactIfWorthIt();
    return true;
  }
  // Keep the last 3 bytes: they may be a magic prefix torn across reads.
  const std::size_t keep = std::min<std::size_t>(front.size(), 3);
  pos_ = buf_.size() - keep;
  CompactIfWorthIt();
  return false;
}

void FrameReassembler::CompactIfWorthIt() {
  // Amortized: drop the consumed prefix only once it dominates the buffer,
  // so repeated small Appends/Consumes never go quadratic.
  if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
}

}  // namespace c5::log
