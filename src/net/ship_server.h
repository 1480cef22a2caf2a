// ShipServer — the sending half of the socket transport: retains the
// unacknowledged tail of the shard group's shipped log as encoded wire
// frames and streams it to any number of remote subscribers, honoring the
// ship_protocol.h vocabulary (subscribe-from-seq, NAK-driven retransmit
// with resync markers, acks, truncation, end-of-log).
//
// Feed modes:
//  * ServeChannel(chan): a drainer thread consumes one subscriber lane of
//    an OnlineLogCollector and publishes each sealed segment as it ships —
//    the live-cluster mode (Cluster wires this when ClusterOptions names a
//    listen port or a via_socket backup).
//  * PublishLog(log) + FinishLog(): serve a prebuilt log — the c5-server
//    seeded mode and the offline-replay benches.
//
// Retention: a frame is kept until every subscriber has acknowledged it.
// The floor is the lowest kAck over the subscribers (a subscription counts
// as an ack of its start seq); frames wholly below it are dropped. A client
// that disconnects keeps its ack in the floor until a subscription at or
// above that ack arrives, so a reconnecting backup can always resume. With
// no subscriber yet nothing is dropped, so a seeded server (PublishLog)
// keeps its whole log for whoever attaches first. A subscribe or NAK below
// the retained archive gets the truncated control frame (ship_protocol.h),
// never a silent rewind into the hole.
//
// Threading: one accept thread; per client one receiver thread (requests
// are pipelined — a NAK is acted on while segments are in flight) and one
// sender thread (streams from the archive cursor, rewinding on NAK). All
// shared state sits behind one mutex + condvar; sends happen outside it,
// from the archived frame itself (frames are immutable and shared).

#ifndef C5_NET_SHIP_SERVER_H_
#define C5_NET_SHIP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "log/log_segment.h"
#include "net/ship_protocol.h"
#include "net/socket.h"

namespace c5::net {

// Per-client shipping counters (the "clientsstats" surface): snapshot via
// ShipServer::ClientStatsSnapshot, printed by c5-server on disconnect.
struct ClientShipStats {
  std::uint64_t client_id = 0;
  bool connected = false;
  std::uint64_t subscribed_from = 0;     // last subscribe's record seq
  std::uint64_t segments_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t naks_received = 0;
  std::uint64_t retransmit_segments = 0; // segments re-sent due to NAK
  std::uint64_t resyncs_sent = 0;
};

class ShipServer {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0: kernel-assigned ephemeral (see port())

    // Deterministic test fault hooks; each fires at most ONCE per server so
    // the protocol's recovery paths can be driven without flaking:
    //  * corrupt_frame: flip one payload byte of the Nth segment frame sent
    //    (counted across the first client's stream) — drives the receiver's
    //    NAK + resync + retransmit path end to end.
    //  * drop_after_frames: hard-close the first accepted connection after
    //    its Nth sent frame — drives reconnect + resume-from-seq.
    int corrupt_frame = -1;
    int drop_after_frames = -1;

    // Throttle between sent frames (kill/restart tests pace the stream so
    // "mid-stream" is a real window, not a race).
    std::chrono::milliseconds send_delay{0};
  };

  ShipServer() : ShipServer(Options()) {}
  explicit ShipServer(Options options);
  ~ShipServer();

  ShipServer(const ShipServer&) = delete;
  ShipServer& operator=(const ShipServer&) = delete;

  // Binds, listens, spawns the accept loop.
  Status Start();

  std::uint16_t port() const { return listener_.port(); }

  // ---- Feed ----
  void PublishSegment(const log::LogSegment& segment);
  void PublishLog(const log::Log& log);
  // No more segments will ever be published: subscribers that drain the
  // archive receive the end-of-log frame and terminate their replay.
  void FinishLog();
  // Spawns a drainer over `chan` (a collector subscriber lane): each popped
  // segment is published and then freed (the lane hands the drainer
  // ownership); a closed channel finishes the log. `chan` must outlive
  // Stop().
  void ServeChannel(SpscQueue<log::LogSegment*>* chan);

  // ---- Stats ----
  std::vector<ClientShipStats> ClientStatsSnapshot() const;
  std::uint64_t frames_published() const;  // ever, dropped ones included
  std::size_t retained_frames() const;     // still archived
  // End-of-archive record seq (base + size of the last published frame).
  std::uint64_t end_seq() const;

  // Shuts the listener, closes every client, joins all threads. Idempotent;
  // the destructor calls it.
  void Stop();

 private:
  struct Frame {
    // Shared so a sender streams it without copying or holding mu_.
    std::shared_ptr<const std::string> bytes;
    std::uint64_t base = 0;
    std::uint64_t count = 0;
  };

  // All mutable Client fields (stats, subscribed, closing, cursor,
  // high_cursor, rewound, end_sent, truncate_pending, ack, holds_floor,
  // subscribed_at, may_adopt) are guarded by the server's mu_; the
  // analysis cannot express a nested struct guarded by an outer instance's
  // capability, so the discipline is enforced by the lock-rank checker and
  // review. Exception: conn.ShutdownBoth() is called under mu_ to unblock
  // the tx thread's WriteAll, which runs OUTSIDE mu_ by design (socket
  // shutdown is async-signal-like: safe against concurrent send/recv).
  struct Client {
    std::uint64_t id = 0;
    TcpConn conn;
    ClientShipStats stats;
    bool subscribed = false;
    bool closing = false;
    // Frame indices count every frame ever published (see FrameAt).
    std::size_t cursor = 0;       // next archive frame to send
    std::size_t high_cursor = 0;  // one past the furthest frame ever sent
    bool rewound = false;         // a NAK moved the cursor; send resync first
    bool end_sent = false;
    bool truncate_pending = false;  // asked below the archive: send C5TR
    std::uint64_t ack = 0;          // lowest seq this client may still need
    bool holds_floor = false;       // `ack` counts toward the floor
    std::uint64_t subscribed_at = 0;
    bool may_adopt = false;  // subscribed, and took over no dropped hold yet
    std::thread rx;
    std::thread tx;
  };

  void AcceptLoop();
  void ClientRxLoop(Client* c);
  void ClientTxLoop(Client* c);
  // Frame index for record seq (last frame with base <= seq; the first
  // retained frame when seq precedes the archive).
  std::size_t FrameIndexFor(std::uint64_t seq) const C5_REQUIRES(mu_);
  // One past the last published frame, and a retained frame by index.
  std::size_t EndIndex() const C5_REQUIRES(mu_) {
    return dropped_frames_ + archive_.size();
  }
  const Frame& FrameAt(std::size_t index) const C5_REQUIRES(mu_) {
    return archive_[index - dropped_frames_];
  }
  // Applies one client request.
  void HandleRequest(Client* c, const Request& req) C5_REQUIRES(mu_);
  // Drops the archived frames wholly below the floor.
  void TrimLocked() C5_REQUIRES(mu_);
  // Marks `c` closed and shuts its socket; its floor hold passes to a
  // re-subscription that already arrived, or stays until one does.
  void DisconnectLocked(Client* c) C5_REQUIRES(mu_);
  // Passes `from`'s floor hold to `to` (a subscription at or above it).
  void MoveHold(Client* from, Client* to) C5_REQUIRES(mu_);

  Options options_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::thread drain_thread_;

  mutable Mutex mu_{LockRank::kQueue};
  CondVar cv_;
  std::deque<Frame> archive_ C5_GUARDED_BY(mu_);
  std::size_t dropped_frames_ C5_GUARDED_BY(mu_) = 0;  // trimmed off the front
  std::uint64_t retained_seq_ C5_GUARDED_BY(mu_) = 0;  // first seq still kept
  std::uint64_t end_seq_ C5_GUARDED_BY(mu_) = 0;
  bool finished_ C5_GUARDED_BY(mu_) = false;
  bool stopping_ C5_GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<Client>> clients_ C5_GUARDED_BY(mu_);
  std::uint64_t next_client_id_ C5_GUARDED_BY(mu_) = 0;

  // One-shot fault-hook arming (first stream only; see Options).
  std::atomic<bool> corrupt_armed_{false};
  std::atomic<bool> drop_armed_{false};
};

}  // namespace c5::net

#endif  // C5_NET_SHIP_SERVER_H_
