#ifndef PCTAGG_SERVER_SERVER_H_
#define PCTAGG_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "server/dist_router.h"
#include "server/executor.h"
#include "server/protocol.h"
#include "server/session.h"

namespace pctagg {

struct ServerConfig {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; read the actual one from port() after Start().
  int port = 0;
  size_t worker_threads = 0;  // 0 = hardware_concurrency (min 2)
  size_t max_in_flight = 64;
  // Default per-query deadline for new sessions (overridable per session
  // with SET timeout_ms). 0 = no deadline.
  uint64_t default_timeout_ms = 30000;
  int listen_backlog = 64;
  // Multi-query batching gate (SET mqo; server/mqo_gate.h): leader collection
  // window and early-close batch size, forwarded to the executor.
  uint64_t mqo_window_ms = 2;
  size_t mqo_max_batch = 16;
  // When set, the server is a coordinator: SHARD becomes available and SHOW
  // describes the topology. Statements on sharded tables run through the
  // database like any other (docs/SHARDING.md). Not owned; must outlive the
  // server.
  DistRouter* router = nullptr;
};

// The pctagg query service: a TCP listener speaking PctProtocol, one
// connection-handler thread per session, all statements funneled through a
// shared QueryExecutor. Start() returns once the socket is listening;
// Stop() (also run by the destructor) closes the listener and every live
// connection and joins all threads.
class PctServer {
 public:
  PctServer(PctDatabase* db, ServerConfig config);
  ~PctServer();

  PctServer(const PctServer&) = delete;
  PctServer& operator=(const PctServer&) = delete;

  Status Start();
  void Stop();

  // The bound port (valid after a successful Start).
  int port() const { return port_; }

  QueryExecutor& executor() { return executor_; }
  size_t sessions_opened() const { return sessions_opened_.load(); }
  size_t sessions_active() const;

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  // Builds the response for one request; sets `*quit` on QUIT.
  WireResponse HandleRequest(Session* session, const WireRequest& request,
                             bool* quit);
  WireResponse RunStatement(Session* session, const std::string& sql,
                            bool olap_baseline);
  // SHARDDATA carries the only request body; it is read from the
  // connection's own LineReader, so the handler lives outside HandleRequest.
  // Sets `*quit` when the frame is too malformed to keep the stream in sync.
  WireResponse HandleShardData(Session* session, const WireRequest& request,
                               LineReader* reader, bool* quit);

  PctDatabase* db_;
  ServerConfig config_;
  QueryExecutor executor_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  mutable std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
  std::set<int> open_fds_;
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<size_t> sessions_opened_{0};
};

}  // namespace pctagg

#endif  // PCTAGG_SERVER_SERVER_H_
