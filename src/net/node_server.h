#ifndef EXPBSI_NET_NODE_SERVER_H_
#define EXPBSI_NET_NODE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "net/socket.h"
#include "net/transport.h"
#include "storage/tiered_store.h"
#include "wire/messages.h"

namespace expbsi {
namespace net {

// One serving node (DESIGN.md §9): a TCP server exposing segment-scoped
// BSI query execution over the warehouse blobs it owns. The execution path
// is cluster/segment_query.* -- the exact code the in-process AdhocCluster
// runs -- so a remote scorecard is bit-identical to the in-process one.
//
// Concurrency model: one accept loop, one handler thread per connection,
// requests on a connection served in order. `max_inflight` is the node's
// backpressure valve: a query arriving while that many are already
// executing is rejected with kError/kUnavailable instead of queuing without
// bound -- the coordinator requeues the wave elsewhere.
struct NodeServerOptions {
  int node_id = 0;
  uint16_t port = 0;  // 0 = kernel-chosen ephemeral port (see port())
  int max_inflight = 4;
  size_t hot_capacity_bytes = 256u << 20;
  RetryPolicy retry;
  // Replica set this node serves (Placement::SegmentsOf). Empty = serve any
  // segment (the pre-replication behavior). When set, a query naming a
  // segment outside the set is rejected with kError(kInvalidArgument): a
  // misrouted segment must fail loudly, never resolve to silent zeros
  // against a pruned store.
  std::vector<uint32_t> owned_segments;
  // When non-empty, a query that returns any lost segment also writes a
  // node-local postmortem bundle (obs/postmortem.h) here -- the node's own
  // flight-recorder view of the failure, complementing the coordinator's
  // fleet-wide bundle.
  std::string postmortem_dir;
};

class NodeServer {
 public:
  // `cold` is the node's slice of the warehouse; not owned, must outlive
  // the server.
  NodeServer(const BsiStore* cold, NodeServerOptions options);
  ~NodeServer();

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  // Binds and starts the accept loop. Fails (AlreadyExists / Unavailable)
  // without side effects.
  Status Start();
  // Stops accepting, closes the listener and joins every thread. Idempotent.
  void Stop();
  // Graceful shutdown: stops accepting new connections, keeps serving until
  // in-flight queries finish and no new query has started for a short
  // quiescence window (bounded by `max_wait_seconds`), then Stop()s. Lets a
  // chaos test distinguish a clean drain from a net.node_crash kill.
  void Drain(double max_wait_seconds = 10.0);

  uint16_t port() const { return port_; }
  // True once an injected net.node_crash killed the server: it stopped
  // serving mid-query and refuses new connections, like a dead process.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }
  uint64_t backpressure_rejections() const {
    return backpressure_rejections_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void HandleConnection(Socket conn);
  // Builds and sends the response for one query request; returns false when
  // the connection must close (injected crash or dead socket).
  bool HandleQuery(Socket& conn, uint64_t request_id,
                   const std::string& payload);
  // Serves a replica-repair pull (kSegmentFetch -> kSegmentPush); returns
  // false when the connection must close.
  bool HandleSegmentFetch(Socket& conn, uint64_t request_id,
                          const std::string& payload);
  // Serves a fleet scrape / postmortem pull (kStatsFetch -> kStatsReply):
  // the node's full registry snapshot, build/uptime info and the requested
  // flight-recorder slice (obs/fleet.h LocalStatsReply).
  bool HandleStatsFetch(Socket& conn, uint64_t request_id,
                        const std::string& payload);
  bool SendError(Socket& conn, uint64_t request_id, const Status& status);

  const BsiStore* cold_;
  NodeServerOptions options_;
  TieredStore tier_;
  Socket listener_;
  uint16_t port_ = 0;
  FaultyEndpoint send_endpoint_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<int> inflight_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> backpressure_rejections_{0};
  // Explicit fault op counters (net.accept / net.node_crash / net.repair),
  // kept apart from the transport's send counter.
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> repairs_{0};
  // steady_clock nanos of the last query admission; Drain's quiescence test.
  std::atomic<int64_t> last_query_ns_{0};

  // One per accepted connection. The thread sets `done` as its last act,
  // and the accept loop joins and drops finished handlers before spawning
  // the next one, so exited threads (and their stacks) do not pile up over
  // a long run of short-lived connections. A list keeps each handler's
  // address stable for the thread that flags it.
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  std::thread accept_thread_;
  std::mutex handlers_mu_;
  std::list<Handler> handlers_;
};

}  // namespace net
}  // namespace expbsi

#endif  // EXPBSI_NET_NODE_SERVER_H_
