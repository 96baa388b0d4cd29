// Tests for the query service: PctProtocol framing, the QueryExecutor's
// admission/timeout/reader-writer discipline, and full client/server round
// trips over loopback TCP. The ServerSmoke suite doubles as the TSan smoke
// target registered by tests/CMakeLists.txt under PCTAGG_SANITIZE=thread.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "engine/csv.h"
#include "server/client.h"
#include "server/executor.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session.h"
#include "sql/parser.h"

namespace pctagg {
namespace {

Table RandomFact(uint64_t seed, size_t n) {
  Rng rng(seed);
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  t.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    t.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(5))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(6))),
                 Value::Float64(1.0 + rng.NextDouble() * 9.0)});
  }
  return t;
}

constexpr char kVpctSql[] =
    "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2 "
    "ORDER BY d1, d2";

// --- Protocol framing -------------------------------------------------------

TEST(ProtocolTest, EscapeRoundTrip) {
  std::string nasty = "line1\nline2\r\n back\\slash \\n literal";
  EXPECT_EQ(UnescapeLine(EscapeLine(nasty)), nasty);
  EXPECT_EQ(EscapeLine("plain"), "plain");
}

TEST(ProtocolTest, RequestRoundTrip) {
  WireRequest req{RequestVerb::kQuery, "SELECT *\nFROM f"};
  std::string frame = EncodeRequest(req);
  ASSERT_EQ(frame.back(), '\n');
  // Exactly one frame line: embedded newlines must have been escaped.
  EXPECT_EQ(frame.find('\n'), frame.size() - 1);
  Result<WireRequest> decoded =
      DecodeRequestLine(frame.substr(0, frame.size() - 1));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->verb, RequestVerb::kQuery);
  EXPECT_EQ(decoded->payload, req.payload);
}

TEST(ProtocolTest, VerbsAreCaseInsensitive) {
  Result<WireRequest> decoded = DecodeRequestLine("ping");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->verb, RequestVerb::kPing);
}

TEST(ProtocolTest, MalformedFramesAreTypedErrors) {
  Result<WireRequest> unknown = DecodeRequestLine("FROBNICATE now");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  Result<WireRequest> empty = DecodeRequestLine("");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ResponseRoundTrip) {
  WireResponse resp;
  resp.body = "a,b\n1,2\n";
  resp.rows = 1;
  resp.cols = 2;
  resp.micros = 1234;
  std::string frame = EncodeResponse(resp);
  size_t nl = frame.find('\n');
  ASSERT_NE(nl, std::string::npos);
  size_t body_bytes = 0;
  Result<WireResponse> decoded =
      DecodeResponseHeader(frame.substr(0, nl), &body_bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->status.ok());
  EXPECT_EQ(body_bytes, resp.body.size());
  EXPECT_EQ(decoded->rows, 1u);
  EXPECT_EQ(decoded->cols, 2u);
  EXPECT_EQ(decoded->micros, 1234u);
  EXPECT_EQ(frame.substr(nl + 1), resp.body);
}

TEST(ProtocolTest, ErrorResponsePreservesCodeAndMessage) {
  WireResponse resp;
  resp.status = Status::NotFound("no such table: f\nsecond line");
  std::string frame = EncodeResponse(resp);
  size_t body_bytes = 7;
  Result<WireResponse> decoded = DecodeResponseHeader(
      frame.substr(0, frame.size() - 1), &body_bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(body_bytes, 0u);
  EXPECT_EQ(decoded->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded->status.message(), "no such table: f\nsecond line");
}

TEST(ProtocolTest, StatusCodeNamesRoundTrip) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kAnalysisError, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kTypeMismatch,
        StatusCode::kLimitExceeded, StatusCode::kTimeout,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    EXPECT_EQ(StatusCodeFromName(StatusCodeName(code)), code);
  }
}

// --- QueryExecutor ----------------------------------------------------------

// The executor recognizes CREATE TABLE AS from ParseStatement's kind and
// runs Statement::text into Statement::table.
TEST(ExecutorTest, ParsesCreateTableAs) {
  Result<Statement> ctas =
      ParseStatement("CREATE TABLE t2 AS SELECT d1 FROM f");
  ASSERT_TRUE(ctas.ok()) << ctas.status().ToString();
  EXPECT_EQ(ctas->kind, Statement::Kind::kCreateTableAs);
  EXPECT_EQ(ctas->table, "t2");
  EXPECT_EQ(ctas->text, "SELECT d1 FROM f");
  Result<Statement> lower =
      ParseStatement("create table x as select d1 from f");
  ASSERT_TRUE(lower.ok()) << lower.status().ToString();
  EXPECT_EQ(lower->kind, Statement::Kind::kCreateTableAs);
  EXPECT_EQ(lower->table, "x");
  EXPECT_EQ(ParseStatement("SELECT d1 FROM f")->kind,
            Statement::Kind::kSelect);
  EXPECT_FALSE(ParseStatement("CREATE TABLE t2").ok());
}

// Every kind but SELECT takes the executor's exclusive lock; a trailing ';'
// leaves the kind as it is.
TEST(ExecutorTest, ClassifiesWriteStatementsIgnoringSemicolons) {
  using Kind = Statement::Kind;
  EXPECT_EQ(ParseStatement("CHECKPOINT")->kind, Kind::kCheckpoint);
  EXPECT_EQ(ParseStatement("CHECKPOINT;")->kind, Kind::kCheckpoint);
  EXPECT_EQ(ParseStatement("checkpoint")->kind, Kind::kCheckpoint);
  EXPECT_EQ(ParseStatement("DROP TABLE f;")->kind, Kind::kDrop);
  EXPECT_EQ(ParseStatement("INSERT INTO f VALUES (1);")->kind, Kind::kInsert);
  EXPECT_EQ(ParseStatement("SELECT d1 FROM f;")->kind, Kind::kSelect);
}

TEST(ExecutorTest, CheckpointStatementTakesTheWriterPath) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(1, 100)).ok());
  QueryExecutor executor(&db, ExecutorConfig{2, 8});
  // A bare CHECKPOINT; (as the QUERY verb delivers it) must dispatch to
  // Execute() like other write statements, not down the read-only path.
  Result<Table> r =
      executor.ExecuteStatement("CHECKPOINT;", QueryOptions{}, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
}

TEST(ExecutorTest, RunsStatementsAndCreateTableAs) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(1, 500)).ok());
  QueryExecutor executor(&db, ExecutorConfig{2, 8});
  Result<Table> r = executor.ExecuteStatement(kVpctSql, QueryOptions{}, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->num_rows(), 0u);
  Result<Table> ctas = executor.ExecuteStatement(
      "CREATE TABLE agg AS SELECT d1, sum(a) AS s FROM f GROUP BY d1",
      QueryOptions{}, 0);
  ASSERT_TRUE(ctas.ok()) << ctas.status().ToString();
  EXPECT_TRUE(db.catalog().HasTable("agg"));
  EXPECT_EQ(executor.executed(), 2u);
}

TEST(ExecutorTest, AdmissionLimitRejectsWithUnavailable) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(2, 200000)).ok());
  // One worker, one slot: while a long query occupies it, every further
  // statement must bounce with kUnavailable.
  QueryExecutor executor(&db, ExecutorConfig{1, 1});
  std::thread slow([&executor] {
    executor.ExecuteStatement(kVpctSql, QueryOptions{}, 0).ok();
  });
  // Wait until the slow statement actually occupies the slot.
  while (executor.in_flight() == 0) std::this_thread::yield();
  Result<Table> r = executor.ExecuteStatement(
      "SELECT d1 FROM f GROUP BY d1", QueryOptions{}, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(executor.rejected(), 1u);
  slow.join();
}

TEST(ExecutorTest, TimeoutFires) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(3, 300000)).ok());
  QueryExecutor executor(&db, ExecutorConfig{1, 8});
  Result<Table> r = executor.ExecuteStatement(kVpctSql, QueryOptions{}, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_GE(executor.timed_out(), 1u);
  // The abandoned worker must finish cleanly (executor destructor drains).
}

// --- Session ----------------------------------------------------------------

TEST(SessionTest, ApplySetRoundTrip) {
  Session session(7, 30000);
  EXPECT_EQ(session.timeout_ms(), 30000u);
  ASSERT_TRUE(session.ApplySet("timeout_ms 250").ok());
  EXPECT_EQ(session.timeout_ms(), 250u);
  ASSERT_TRUE(session.ApplySet("timeout_ms default").ok());
  EXPECT_EQ(session.timeout_ms(), 30000u);
  ASSERT_TRUE(session.ApplySet("cache on").ok());
  ASSERT_TRUE(session.query_options().use_summary_cache.has_value());
  EXPECT_TRUE(*session.query_options().use_summary_cache);
  ASSERT_TRUE(session.ApplySet("vpct update").ok());
  ASSERT_TRUE(session.query_options().vpct_strategy.has_value());
  EXPECT_FALSE(session.query_options().vpct_strategy->insert_result);
  ASSERT_TRUE(session.ApplySet("horizontal spj").ok());
  EXPECT_EQ(session.query_options().horizontal_strategy->method,
            HorizontalMethod::kSpjDirect);
  EXPECT_FALSE(session.ApplySet("vpct bogus").ok());
  EXPECT_FALSE(session.ApplySet("nonsense on").ok());
}

// --- End-to-end over loopback TCP -------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(size_t fact_rows, ServerConfig config = ServerConfig{}) {
    ASSERT_TRUE(db_.CreateTable("f", RandomFact(42, fact_rows)).ok());
    config.port = 0;
    server_ = std::make_unique<PctServer>(&db_, config);
    ASSERT_TRUE(server_->Start().ok());
  }

  Result<PctClient> Connect() {
    return PctClient::Connect("127.0.0.1", server_->port());
  }

  PctDatabase db_;
  std::unique_ptr<PctServer> server_;
};

TEST_F(ServerTest, QueryRoundTripMatchesEmbeddedResult) {
  StartServer(2000);
  Table reference = db_.Query(kVpctSql).value();
  Result<PctClient> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<WireResponse> reply = client->Query(kVpctSql);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->status.ok()) << reply->status.ToString();
  EXPECT_EQ(reply->rows, reference.num_rows());
  EXPECT_EQ(reply->cols, reference.num_columns());
  EXPECT_EQ(reply->body, FormatCsv(reference));
  EXPECT_GT(reply->micros, 0u);
}

TEST_F(ServerTest, MalformedFrameYieldsTypedErrorAndKeepsSessionAlive) {
  StartServer(100);
  Result<PctClient> client = Connect();
  ASSERT_TRUE(client.ok());
  // Unknown verb.
  Result<WireResponse> bad = client->Call(RequestVerb::kQuery, "");
  // (empty QUERY payload is fine at the framing layer; the parser rejects)
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->status.ok());
  // Bad SQL -> ParseError; unknown table -> NotFound; both leave the
  // connection usable.
  Result<WireResponse> parse_err = client->Query("SELEKT nope");
  ASSERT_TRUE(parse_err.ok());
  EXPECT_EQ(parse_err->status.code(), StatusCode::kParseError);
  Result<WireResponse> not_found =
      client->Query("SELECT x FROM missing GROUP BY x");
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status.code(), StatusCode::kNotFound);
  Result<WireResponse> pong = client->Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->status.ok());
}

TEST_F(ServerTest, UnknownVerbOnRawSocketGetsTypedErrFrame) {
  StartServer(100);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char frame[] = "FROBNICATE now\n";
  ASSERT_TRUE(WriteAll(fd, std::string(frame)).ok());
  LineReader reader(fd);
  Result<std::string> line = reader.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  size_t body_bytes = 1;
  Result<WireResponse> decoded = DecodeResponseHeader(*line, &body_bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(body_bytes, 0u);
  ::close(fd);
}

TEST_F(ServerTest, SetTimeoutFiresOverTheWire) {
  StartServer(300000);
  Result<PctClient> client = Connect();
  ASSERT_TRUE(client.ok());
  Result<WireResponse> set = client->Call(RequestVerb::kSet, "timeout_ms 1");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(set->status.ok()) << set->status.ToString();
  // ~300,000 groups (a is a random FLOAT64): tens of milliseconds on any
  // host, far past the 1 ms deadline.
  Result<WireResponse> reply =
      client->Query("SELECT a, count(*) AS n FROM f GROUP BY a");
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply->status.ok());
  EXPECT_EQ(reply->status.code(), StatusCode::kTimeout);
  // The session survives and can lift its own deadline again.
  ASSERT_TRUE(client->Call(RequestVerb::kSet, "timeout_ms 0").ok());
}

TEST_F(ServerTest, ConcurrentSessionsSeeConsistentResults) {
  StartServer(2000);
  Table reference = db_.Query(kVpctSql).value();
  std::string expected = FormatCsv(reference);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([this, &expected, &failures] {
      Result<PctClient> client = Connect();
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int q = 0; q < 5; ++q) {
        Result<WireResponse> reply = client->Query(kVpctSql);
        if (!reply.ok() || !reply->status.ok() || reply->body != expected) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->sessions_opened(), 8u);
}

TEST_F(ServerTest, GenAndDropTakeTheWriterPath) {
  StartServer(100);
  Result<PctClient> client = Connect();
  ASSERT_TRUE(client.ok());
  Result<WireResponse> gen =
      client->Call(RequestVerb::kGen, "employee emp 1000");
  ASSERT_TRUE(gen.ok());
  ASSERT_TRUE(gen->status.ok()) << gen->status.ToString();
  Result<WireResponse> rows = client->Query(
      "SELECT gender, Vpct(salary BY gender) AS pct FROM emp GROUP BY gender");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->status.ok()) << rows->status.ToString();
  EXPECT_EQ(rows->rows, 2u);
  Result<WireResponse> drop = client->Call(RequestVerb::kDrop, "emp");
  ASSERT_TRUE(drop.ok());
  EXPECT_TRUE(drop->status.ok());
  Result<WireResponse> gone = client->Query(
      "SELECT gender, Vpct(salary BY gender) AS pct FROM emp GROUP BY gender");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->status.code(), StatusCode::kNotFound);
}

// --- Observability over the wire --------------------------------------------

// Reads the value of one metric from a Prometheus text dump (0 if absent).
// Value lines start at column 0; HELP/TYPE lines are prefixed with "# ".
uint64_t PromValue(const std::string& body, const std::string& metric) {
  std::string needle = "\n" + metric + " ";
  size_t pos = body.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(body.c_str() + pos + needle.size(), nullptr, 10);
}

TEST_F(ServerTest, StatsCountersAdvanceAcrossScriptedSession) {
  StartServer(500);
  Result<PctClient> client = Connect();
  ASSERT_TRUE(client.ok());
  Result<WireResponse> before = client->Stats();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->status.ok()) << before->status.ToString();
  uint64_t executed0 =
      PromValue(before->body, "pctagg_server_statements_executed_total");
  uint64_t latency0 =
      PromValue(before->body, "pctagg_server_query_latency_micros_count");

  for (int i = 0; i < 3; ++i) {
    Result<WireResponse> r = client->Query(kVpctSql);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->status.ok()) << r->status.ToString();
  }

  Result<WireResponse> after = client->Stats();
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->status.ok());
  EXPECT_GE(PromValue(after->body, "pctagg_server_statements_executed_total"),
            executed0 + 3);
  EXPECT_GE(PromValue(after->body, "pctagg_server_query_latency_micros_count"),
            latency0 + 3);
  EXPECT_GE(PromValue(after->body, "pctagg_server_sessions_opened_total"), 1u);
  EXPECT_GE(PromValue(after->body, "pctagg_server_sessions_active"), 1u);
  // The dump is well-formed Prometheus text.
  EXPECT_NE(after->body.find("# TYPE pctagg_server_statements_executed_total "
                             "counter"),
            std::string::npos);
  EXPECT_NE(
      after->body.find("# TYPE pctagg_server_query_latency_micros histogram"),
      std::string::npos);
}

TEST_F(ServerTest, TraceSettingAppendsExecutedPlan) {
  StartServer(1000);
  Result<PctClient> client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Call(RequestVerb::kSet, "trace on")->status.ok());
  Result<WireResponse> traced = client->Query(kVpctSql);
  ASSERT_TRUE(traced.ok());
  ASSERT_TRUE(traced->status.ok()) << traced->status.ToString();
  size_t marker = traced->body.find("-- trace\n");
  ASSERT_NE(marker, std::string::npos);
  // CSV result first, then the serialized trace.
  EXPECT_NE(traced->body.substr(0, marker).find("pct"), std::string::npos);
  std::string trace = traced->body.substr(marker);
  EXPECT_NE(trace.find("query class: vertical-percentage"),
            std::string::npos);
  EXPECT_NE(trace.find("strategy: "), std::string::npos);
  EXPECT_NE(trace.find("plan:"), std::string::npos);
  EXPECT_NE(trace.find("aggregate"), std::string::npos);
  // SHOW reflects the flag; turning it off removes the appendix.
  Result<WireResponse> show = client->Call(RequestVerb::kShow, "");
  ASSERT_TRUE(show.ok());
  EXPECT_NE(show->body.find("trace = on"), std::string::npos);
  ASSERT_TRUE(client->Call(RequestVerb::kSet, "trace off")->status.ok());
  Result<WireResponse> plain = client->Query(kVpctSql);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->status.ok());
  EXPECT_EQ(plain->body.find("-- trace\n"), std::string::npos);
}

// CREATE TABLE AS runs its SELECT with the session's SETs: the forced
// strategy shows in the statement's trace.
TEST_F(ServerTest, CreateTableAsRunsWithTheSessionSettings) {
  StartServer(1000);
  Result<PctClient> client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Call(RequestVerb::kSet, "vpct update")->status.ok());
  ASSERT_TRUE(client->Call(RequestVerb::kSet, "trace on")->status.ok());
  Result<WireResponse> ctas = client->Query(
      "CREATE TABLE g AS SELECT d1, d2, Vpct(a BY d2) AS pct FROM f "
      "GROUP BY d1, d2");
  ASSERT_TRUE(ctas.ok());
  ASSERT_TRUE(ctas->status.ok()) << ctas->status.ToString();
  EXPECT_NE(ctas->body.find("strategy: Fj-from-Fk+UPDATE+lattice (forced)"),
            std::string::npos)
      << ctas->body;
  EXPECT_TRUE(db_.catalog().HasTable("g"));
}

// Regression test for ctest -j: two servers must coexist in one process (and
// by extension, across concurrently running test binaries) because every
// test binds port 0 and reads the kernel-assigned port back.
TEST(ServerPortTest, TwoServersBindConcurrently) {
  PctDatabase db1, db2;
  ASSERT_TRUE(db1.CreateTable("f", RandomFact(11, 100)).ok());
  ASSERT_TRUE(db2.CreateTable("f", RandomFact(12, 100)).ok());
  ServerConfig config;
  config.port = 0;
  PctServer a(&db1, config), b(&db2, config);
  ASSERT_TRUE(a.Start().ok());
  ASSERT_TRUE(b.Start().ok());
  EXPECT_NE(a.port(), b.port());
  for (PctServer* server : {&a, &b}) {
    Result<PctClient> client =
        PctClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<WireResponse> pong = client->Ping();
    ASSERT_TRUE(pong.ok());
    EXPECT_TRUE(pong->status.ok());
  }
  b.Stop();
  a.Stop();
}

// The smoke suite the TSan ctest target runs: concurrent sessions mixing
// reads with DDL while the server is under way, then a clean shutdown.
TEST(ServerSmoke, MixedTrafficUnderConcurrentSessions) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(7, 1500)).ok());
  db.EnableSummaryCache(true);
  ServerConfig config;
  config.port = 0;
  config.worker_threads = 4;
  PctServer server(&db, config);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&server, &failures, i] {
      Result<PctClient> client =
          PctClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int q = 0; q < 6; ++q) {
        Result<WireResponse> reply = [&]() -> Result<WireResponse> {
          if (i == 0 && q % 3 == 2) {
            // One session interleaves DDL: regenerate a private table.
            return client->Call(RequestVerb::kGen,
                                "employee emp_" + std::to_string(i) + " 500");
          }
          if (q % 2 == 0) return client->Query(kVpctSql);
          return client->Query("SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1");
        }();
        if (!reply.ok() || !reply->status.ok()) ++failures;
      }
      client->Call(RequestVerb::kQuit, "");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
  // All plan temporaries cleaned up: base table plus the generated one.
  EXPECT_EQ(db.catalog().TableNames().size(), 2u);
}

}  // namespace
}  // namespace pctagg
