#include "net/ship_server.h"

#include <algorithm>

#include "log/wire.h"

namespace c5::net {

ShipServer::ShipServer(Options options) : options_(std::move(options)) {
  corrupt_armed_.store(options_.corrupt_frame >= 0,
                       std::memory_order_relaxed);
  drop_armed_.store(options_.drop_after_frames >= 0,
                    std::memory_order_relaxed);
}

ShipServer::~ShipServer() { Stop(); }

Status ShipServer::Start() {
  const Status s = listener_.Listen(options_.port);
  if (!s.ok()) return s;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ShipServer::PublishSegment(const log::LogSegment& segment) {
  if (segment.empty()) return;
  auto bytes = std::make_shared<std::string>();
  log::EncodeSegment(segment, bytes.get());
  Frame f;
  f.bytes = std::move(bytes);
  f.base = segment.base_seq();
  f.count = segment.size();
  {
    MutexLock lock(mu_);
    archive_.push_back(std::move(f));
    end_seq_ = segment.base_seq() + segment.size();
  }
  cv_.NotifyAll();
}

void ShipServer::PublishLog(const log::Log& log) {
  for (std::size_t i = 0; i < log.NumSegments(); ++i) {
    PublishSegment(*log.segment(i));
  }
}

void ShipServer::FinishLog() {
  {
    MutexLock lock(mu_);
    finished_ = true;
  }
  cv_.NotifyAll();
}

void ShipServer::ServeChannel(SpscQueue<log::LogSegment*>* chan) {
  drain_thread_ = std::thread([this, chan] {
    for (;;) {
      auto seg = chan->Pop();
      if (!seg.has_value() || *seg == nullptr) break;
      // The archived frame is all a subscriber ever reads: free the
      // segment once it is encoded.
      const std::unique_ptr<log::LogSegment> owned(*seg);
      PublishSegment(*owned);
    }
    FinishLog();
  });
}

std::vector<ClientShipStats> ShipServer::ClientStatsSnapshot() const {
  MutexLock lock(mu_);
  std::vector<ClientShipStats> out;
  out.reserve(clients_.size());
  for (const auto& c : clients_) out.push_back(c->stats);
  return out;
}

std::uint64_t ShipServer::frames_published() const {
  MutexLock lock(mu_);
  return EndIndex();
}

std::size_t ShipServer::retained_frames() const {
  MutexLock lock(mu_);
  return archive_.size();
}

std::uint64_t ShipServer::end_seq() const {
  MutexLock lock(mu_);
  return end_seq_;
}

void ShipServer::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& c : clients_) {
      c->closing = true;
      c->conn.ShutdownBoth();
    }
  }
  cv_.NotifyAll();
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (drain_thread_.joinable()) drain_thread_.join();
  std::vector<std::unique_ptr<Client>> clients;
  {
    MutexLock lock(mu_);
    clients.swap(clients_);
  }
  for (auto& c : clients) {
    if (c->rx.joinable()) c->rx.join();
    if (c->tx.joinable()) c->tx.join();
  }
}

void ShipServer::AcceptLoop() {
  for (;;) {
    TcpConn conn;
    const Status s = listener_.Accept(&conn);
    if (!s.ok()) return;  // shutdown
    MutexLock lock(mu_);
    if (stopping_) return;
    auto client = std::make_unique<Client>();
    client->id = next_client_id_++;
    client->stats.client_id = client->id;
    client->stats.connected = true;
    client->conn = std::move(conn);
    Client* c = client.get();
    clients_.push_back(std::move(client));
    c->rx = std::thread([this, c] { ClientRxLoop(c); });
    c->tx = std::thread([this, c] { ClientTxLoop(c); });
  }
}

std::size_t ShipServer::FrameIndexFor(std::uint64_t seq) const {
  // Frames are appended in base order; find the last frame with base <= seq
  // (requests past the archive land one-past-the-end: wait for more).
  std::size_t lo = 0, hi = archive_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (archive_[mid].base <= seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // lo = first retained frame with base > seq.
  if (lo == 0) return dropped_frames_;
  const Frame& f = archive_[lo - 1];
  return dropped_frames_ + ((seq >= f.base + f.count) ? lo : lo - 1);
}

void ShipServer::TrimLocked() {
  std::uint64_t floor = ~std::uint64_t{0};
  bool held = false;
  for (const auto& c : clients_) {
    if (!c->holds_floor) continue;
    held = true;
    floor = std::min(floor, c->ack);
  }
  if (!held) return;  // nobody subscribed yet: keep everything
  while (!archive_.empty() &&
         archive_.front().base + archive_.front().count <= floor) {
    retained_seq_ = archive_.front().base + archive_.front().count;
    archive_.pop_front();
    ++dropped_frames_;
  }
}

void ShipServer::HandleRequest(Client* c, const Request& req) {
  if (req.type == RequestType::kAck) {
    if (req.arg > c->ack) {
      c->ack = req.arg;
      TrimLocked();
    }
    return;
  }
  c->stats.subscribed_from = req.arg;
  c->end_sent = false;
  if (req.arg < retained_seq_) {
    // The records are gone: never rewind into the hole. The client ends
    // its log with an error and must resync from a checkpoint.
    c->subscribed = false;
    c->truncate_pending = true;
    return;
  }
  c->cursor = FrameIndexFor(req.arg);
  if (req.type == RequestType::kSubscribe) {
    c->subscribed = true;
    c->holds_floor = true;
    c->ack = req.arg;
    c->subscribed_at = req.arg;
    c->may_adopt = true;
    // Take over the largest dropped hold at or below this subscription.
    Client* dropped = nullptr;
    for (const auto& other : clients_) {
      if (other->closing && other->holds_floor && other->ack <= req.arg &&
          (dropped == nullptr || other->ack > dropped->ack)) {
        dropped = other.get();
      }
    }
    if (dropped != nullptr) MoveHold(dropped, c);
    TrimLocked();
  } else {
    ++c->stats.naks_received;
    c->rewound = true;  // emit a resync marker before retransmitting
  }
}

void ShipServer::MoveHold(Client* from, Client* to) {
  // `to` needs nothing below its subscription, which is at or above
  // `from`'s ack: the hold keeps the lower ack.
  to->ack = std::min(to->ack, from->ack);
  to->may_adopt = false;
  from->holds_floor = false;
}

void ShipServer::DisconnectLocked(Client* c) {
  c->stats.connected = false;
  // Unblock the peer thread (rx in ReadSome, tx mid-send) promptly.
  c->conn.ShutdownBoth();
  if (c->closing) return;
  c->closing = true;
  if (!c->holds_floor) return;
  // The reconnect may have subscribed before this drop was seen: hand the
  // hold to a live subscription at or above the ack that took none yet.
  // Otherwise the ack keeps holding the floor (see Retention).
  for (const auto& other : clients_) {
    if (!other->closing && other->subscribed && other->may_adopt &&
        other->subscribed_at >= c->ack) {
      MoveHold(c, other.get());
      break;
    }
  }
}

void ShipServer::ClientRxLoop(Client* c) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    std::size_t n = 0;
    const Status s = c->conn.ReadSome(chunk, sizeof(chunk), &n);
    if (!s.ok() || n == 0) break;  // peer gone (or Stop shut us down)
    buf.append(chunk, n);
    std::size_t off = 0;
    bool broken = false;
    for (;;) {
      Request req;
      bool malformed = false;
      if (!DecodeRequest(std::string_view(buf).substr(off), &req,
                         &malformed)) {
        broken = malformed;  // torn request: wait for the rest
        break;
      }
      off += kRequestBytes;
      MutexLock lock(mu_);
      HandleRequest(c, req);
      if (req.type != RequestType::kAck) cv_.NotifyAll();
    }
    buf.erase(0, off);
    if (broken) break;  // a malformed request means a broken peer: drop it
  }
  {
    MutexLock lock(mu_);
    DisconnectLocked(c);
  }
  cv_.NotifyAll();
}

void ShipServer::ClientTxLoop(Client* c) {
  std::uint64_t frames_sent_on_conn = 0;
  for (;;) {
    // A segment frame is sent straight from the archive; control frames
    // (and a corrupted copy, see the fault hooks) are built in `owned`.
    std::shared_ptr<const std::string> frame;
    std::string owned;
    bool is_retransmit = false;
    std::uint64_t segment_count = 0;
    {
      MutexLock lock(mu_);
      // Explicit loop (not a predicate lambda): the thread-safety analysis
      // must see the guarded reads performed while mu_ is held.
      while (!(c->closing || stopping_ || c->truncate_pending ||
               (c->subscribed &&
                (c->rewound || c->cursor < EndIndex() ||
                 (finished_ && !c->end_sent))))) {
        cv_.Wait(lock);
      }
      if (c->closing || stopping_) break;
      if (c->subscribed && c->cursor < dropped_frames_) {
        // Only a peer that acked past what it then asked for gets here;
        // its cursor must not index the dropped prefix.
        c->subscribed = false;
        c->truncate_pending = true;
      }
      if (c->truncate_pending) {
        // Tell the client where the retained archive starts; stream
        // nothing more until it subscribes again at or above it.
        EncodeControl(kTruncatedMagic, retained_seq_, &owned);
        c->truncate_pending = false;
      } else if (c->rewound) {
        // NAK recovery: mark the stream position, then retransmit.
        const std::uint64_t seq =
            c->cursor < EndIndex() ? FrameAt(c->cursor).base : end_seq_;
        EncodeControl(kResyncMagic, seq, &owned);
        c->rewound = false;
        ++c->stats.resyncs_sent;
      } else if (c->cursor < EndIndex()) {
        frame = FrameAt(c->cursor).bytes;
        segment_count = 1;
        // A frame below this stream's high-water mark is a retransmission
        // (a NAK — or a re-subscribe after reconnect — rewound the cursor).
        is_retransmit = c->cursor < c->high_cursor;
        c->high_cursor = std::max(c->high_cursor, c->cursor + 1);
        ++c->cursor;
      } else {
        // Archive drained and finished: tell the client the log ended.
        EncodeControl(kEndMagic, end_seq_, &owned);
        c->end_sent = true;
      }
      c->stats.segments_sent += segment_count;
      if (is_retransmit) c->stats.retransmit_segments += segment_count;
      c->stats.bytes_sent += frame ? frame->size() : owned.size();
    }
    const std::string* to_send = frame ? frame.get() : &owned;

    // Fault hooks (armed once per server; see Options).
    if (segment_count > 0) {
      ++frames_sent_on_conn;
      if (options_.corrupt_frame >= 0 &&
          frames_sent_on_conn ==
              static_cast<std::uint64_t>(options_.corrupt_frame) + 1 &&
          corrupt_armed_.exchange(false, std::memory_order_relaxed) &&
          frame->size() > log::kSegmentHeaderBytes) {
        // Corrupt a private copy: the archived frame stays intact for the
        // retransmission and for every other subscriber.
        owned = *frame;
        owned[log::kSegmentHeaderBytes] =
            static_cast<char>(owned[log::kSegmentHeaderBytes] ^ 0x5A);
        to_send = &owned;
      }
    }
    if (options_.send_delay.count() > 0 && segment_count > 0) {
      std::this_thread::sleep_for(options_.send_delay);
    }

    if (!c->conn.WriteAll(to_send->data(), to_send->size()).ok()) {
      // A failed send usually means the peer is gone, but its FIN can be
      // arbitrarily delayed and the rx thread would otherwise sit in
      // ReadSome until Stop().
      MutexLock lock(mu_);
      DisconnectLocked(c);
      cv_.NotifyAll();
      continue;  // loop re-checks closing and exits
    }

    if (segment_count > 0 && options_.drop_after_frames >= 0 &&
        frames_sent_on_conn ==
            static_cast<std::uint64_t>(options_.drop_after_frames) &&
        drop_armed_.exchange(false, std::memory_order_relaxed)) {
      // Simulated transport failure: hard-close under the client's feet.
      MutexLock lock(mu_);
      c->conn.ShutdownBoth();
    }
  }
}

}  // namespace c5::net
