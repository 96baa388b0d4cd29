#ifndef PCTAGG_SERVER_PROTOCOL_H_
#define PCTAGG_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace pctagg {

// PctProtocol — the line-oriented wire protocol between pctagg clients and
// the query server. Full grammar in docs/SERVER.md; in short:
//
//   request  := VERB [' ' payload] '\n'        (payload backslash-escaped)
//   response := "OK " nbytes ' ' nrows ' ' ncols ' ' micros '\n' body
//             | "ERR " code-name ' ' escaped-message '\n'
//
// The body is exactly `nbytes` raw bytes — a CSV result set (the engine's
// CSV writer output) for statements, plain text for informational verbs.
// Error code names are the StatusCodeName() spellings ("NotFound",
// "Timeout", ...), so a typed Status survives the round trip.

// Hard cap on one frame line; longer lines are a malformed frame.
inline constexpr size_t kMaxLineBytes = 1 << 20;
// Hard cap on a response body a client will accept.
inline constexpr size_t kMaxBodyBytes = 1 << 28;

enum class RequestVerb {
  kQuery,    // QUERY <sql>       run a statement (SELECT / CREATE TABLE AS)
  kAppend,   // APPEND <sql>      run a write (INSERT / COPY ... (APPEND))
  kExplain,  // EXPLAIN <sql>     return the plan that would run
  kOlap,     // OLAP <sql>        run a Vpct query via the OLAP baseline
  kSet,      // SET <opt> <val>   change a session option
  kShow,     // SHOW              session + server status text
  kTables,   // TABLES            CSV of (table,rows,columns)
  kSchema,   // SCHEMA <table>    one-line schema text
  kGen,      // GEN <kind> <name> <rows>   create a synthetic workload table
  kDrop,     // DROP <table>      drop a base table
  kCheckpoint,  // CHECKPOINT     flush tables to segments, truncate the WAL
  kStats,    // STATS             process-wide metrics, Prometheus text format
  kPing,     // PING              liveness check, empty OK
  kQuit,     // QUIT              close the session
  // Distributed execution (docs/SHARDING.md). SHARD is client -> coordinator;
  // PARTIAL and SHARDDATA are coordinator -> worker.
  kShard,      // SHARD <table> <column>   hash-partition a table across workers
  kPartial,    // PARTIAL <dop> <sql>      run a partial-aggregation SELECT at
               //                          the given dop; body is the result
               //                          table in storage/serde encoding
  kShardData,  // SHARDDATA <table> <nbytes>\n<bytes>  install one shard of a
               //                          table (serde-encoded request body —
               //                          the only verb with a request body)
};

const char* VerbName(RequestVerb verb);

struct WireRequest {
  RequestVerb verb;
  std::string payload;  // unescaped
};

// Escapes '\\', '\n', '\r' so arbitrary SQL fits in one frame line.
std::string EscapeLine(const std::string& s);
std::string UnescapeLine(const std::string& s);

// One request frame, newline included.
std::string EncodeRequest(const WireRequest& request);

// Parses one request line (no trailing newline). Malformed frames (unknown
// verb, empty line, oversized payload) come back as typed errors.
Result<WireRequest> DecodeRequestLine(const std::string& line);

struct WireResponse {
  Status status;     // OK, or the server-reported typed error
  std::string body;  // empty on error
  uint64_t rows = 0;
  uint64_t cols = 0;
  uint64_t micros = 0;  // server-side execution time
};

// Full response frame: header line plus body bytes.
std::string EncodeResponse(const WireResponse& response);

// Parses a response header line; `*body_bytes` receives the number of body
// bytes the caller must read next (0 for errors).
Result<WireResponse> DecodeResponseHeader(const std::string& line,
                                          size_t* body_bytes);

// Inverse of StatusCodeName(); unknown names map to kInternal.
StatusCode StatusCodeFromName(const std::string& name);

// --- Blocking POSIX socket I/O helpers -------------------------------------

// Buffered line/byte reader over a connected socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Reads up to and including '\n'; returns the line without '\n' (a
  // trailing '\r' is stripped too). EOF before any byte -> NotFound
  // ("connection closed"); over-long lines -> InvalidArgument.
  Result<std::string> ReadLine();

  // Reads exactly `n` bytes.
  Result<std::string> ReadBytes(size_t n);

 private:
  Status Fill();  // reads more bytes into buf_

  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

// Writes all of `data`, retrying on short writes / EINTR.
Status WriteAll(int fd, const std::string& data);

}  // namespace pctagg

#endif  // PCTAGG_SERVER_PROTOCOL_H_
