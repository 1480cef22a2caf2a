// ShipServer — the sending half of the socket transport: retains the
// shard group's shipped log as encoded wire frames and streams it to any
// number of remote subscribers, honoring the ship_protocol.h vocabulary
// (subscribe-from-seq, NAK-driven retransmit with resync markers,
// end-of-log).
//
// Feed modes:
//  * ServeChannel(chan): a drainer thread consumes one subscriber lane of
//    an OnlineLogCollector and publishes each sealed segment as it ships —
//    the live-cluster mode (Cluster wires this when ClusterOptions names a
//    listen port or a via_socket backup).
//  * PublishLog(log) + FinishLog(): serve a prebuilt log — the c5-server
//    seeded mode and the offline-replay benches.
//
// Retention: every published frame is retained for the server's lifetime,
// so a subscriber may attach (or NAK back) to any point of the history —
// the same policy the in-process fan-out already has (a collector's
// subscriber store keeps every shipped segment alive for its replicas).
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
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "log/log_segment.h"
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
  // segment is published; a closed channel finishes the log. `chan` must
  // outlive Stop().
  void ServeChannel(SpscQueue<log::LogSegment*>* chan);

  // ---- Stats ----
  std::vector<ClientShipStats> ClientStatsSnapshot() const;
  std::uint64_t frames_published() const;
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
  // high_cursor, rewound, end_sent) are guarded by the server's mu_; the
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
    std::size_t cursor = 0;       // next archive frame to send
    std::size_t high_cursor = 0;  // one past the furthest frame ever sent
    bool rewound = false;         // a NAK moved the cursor; send resync first
    bool end_sent = false;
    std::thread rx;
    std::thread tx;
  };

  void AcceptLoop();
  void ClientRxLoop(Client* c);
  void ClientTxLoop(Client* c);
  // Archive frame index for record seq (last frame with base <= seq; 0 when
  // seq precedes the archive).
  std::size_t FrameIndexFor(std::uint64_t seq) const C5_REQUIRES(mu_);

  Options options_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::thread drain_thread_;

  mutable Mutex mu_{LockRank::kQueue};
  CondVar cv_;
  std::vector<Frame> archive_ C5_GUARDED_BY(mu_);
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
