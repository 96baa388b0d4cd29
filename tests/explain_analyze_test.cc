// Tests for EXPLAIN ANALYZE: reading the EXPLAIN [ANALYZE] prefix, the
// rendered trace for one Vpct and one Hpct strategy on the paper's sales
// example (golden, numbers normalized), the
// predicted-vs-actual cost-model fields, and every statement kind's replies,
// EXPLAIN forms included, agreeing between the server's executor and
// embedded Execute.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "core/database.h"
#include "engine/csv.h"
#include "obs/trace.h"
#include "server/executor.h"
#include "sql/parser.h"
#include "workload/generators.h"

namespace pctagg {
namespace {

constexpr char kVpctSql[] =
    "SELECT state, Vpct(salesAmt BY state) FROM sales GROUP BY state";
constexpr char kHpctSql[] =
    "SELECT state, Hpct(salesAmt BY dweek) FROM sales GROUP BY state";

// Replaces every number (ints, decimals, counter suffixes) with '#' so the
// golden comparison pins the structure — node labels, stat fields, strategy
// names — without depending on timings or exact sizes.
std::string Normalize(const std::string& s) {
  std::string out;
  bool in_number = false;
  for (char c : s) {
    bool numeric =
        std::isdigit(static_cast<unsigned char>(c)) || (in_number && c == '.');
    if (numeric) {
      if (!in_number) out.push_back('#');
      in_number = true;
    } else {
      in_number = false;
      out.push_back(c);
    }
  }
  return out;
}

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("sales", GenerateSales(400)).ok());
  }
  PctDatabase db_;
};

// --- Statement parsing ------------------------------------------------------

TEST(ParseStatementKindTest, RecognizesExplainAndAnalyze) {
  Result<Statement> plain = ParseStatement("SELECT a FROM f");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);
  EXPECT_FALSE(plain->analyze);
  EXPECT_EQ(plain->text, "SELECT a FROM f");

  Result<Statement> explain = ParseStatement("EXPLAIN SELECT a FROM f");
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->explain);
  EXPECT_FALSE(explain->analyze);
  EXPECT_EQ(explain->text, "SELECT a FROM f");

  Result<Statement> analyze =
      ParseStatement("explain analyze SELECT a FROM f");
  ASSERT_TRUE(analyze.ok());
  EXPECT_TRUE(analyze->explain);
  EXPECT_TRUE(analyze->analyze);
  EXPECT_EQ(analyze->text, "SELECT a FROM f");
}

TEST(ParseStatementKindTest, BareExplainIsAnError) {
  EXPECT_FALSE(ParseStatement("EXPLAIN").ok());
  EXPECT_FALSE(ParseStatement("EXPLAIN ANALYZE").ok());
}

// --- Golden renders (numbers normalized) ------------------------------------

TEST_F(ExplainAnalyzeTest, VpctGoldenRender) {
  QueryOptions options;
  options.vpct_strategy = VpctStrategy{};  // the paper's best: Fj-from-Fk+INSERT
  Result<std::string> rendered = db_.ExplainAnalyze(kVpctSql, options);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(Normalize(*rendered), std::string(
R"(query class: vertical-percentage
strategy: Fj-from-Fk+INSERT+lattice (forced)
cost model: Fj-from-Fk+INSERT=#* Fj-from-F+INSERT=# Fj-from-Fk+UPDATE=# OLAP-window=#  (*=chosen, abstract row-op units)
predicted group rows: #  actual: #
actual row ops: #
total: # ms
plan:
  insert: INSERT INTO Fk_# SELECT state, sum(salesAmt) AS __psum_# FROM sales GROUP BY state
    [wall=#ms cpu=#ms]
    aggregate: keys=inline(#x#B)
      [rows_in=# rows_out=# morsels=# workers=# hash_groups=# hash_slots=# load=# wall=#ms cpu=#ms]
  insert: INSERT INTO Fj_# SELECT sum(__psum_#) AS __ptot_# FROM Fk_#
    [wall=#ms cpu=#ms]
    aggregate: keys=inline(#x#B)
      [rows_in=# rows_out=# morsels=# workers=# hash_groups=# hash_slots=# load=# wall=#ms cpu=#ms]
  insert: INSERT INTO FV_# SELECT state, CASE WHEN Fj.__ptot_# <> # THEN Fk.__psum_# / Fj.__ptot_# ELSE NULL END AS vpct_salesAmt FROM Fk_# Fk CROSS JOIN Fj_# Fj
    [wall=#ms cpu=#ms]
)"));
}

TEST_F(ExplainAnalyzeTest, HpctGoldenRender) {
  QueryOptions options;
  HorizontalStrategy h;
  h.method = HorizontalMethod::kCaseDirect;
  options.horizontal_strategy = h;
  Result<std::string> rendered = db_.ExplainAnalyze(kHpctSql, options);
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(Normalize(*rendered), std::string(
R"(query class: horizontal
strategy: CASE-from-F+hash-dispatch (forced)
cost model: CASE-from-F=#* CASE-from-FV=# SPJ-from-F=# SPJ-from-FV=#  (*=chosen, abstract row-op units)
predicted group rows: #  actual: #
actual row ops: #
total: # ms
plan:
  insert: INSERT INTO FH_# SELECT state, sum(CASE WHEN dweek = v_#v_N THEN salesAmt ELSE # END) / sum(salesAmt), ...xN FROM sales GROUP BY state
    [wall=#ms cpu=#ms]
    pivot: combos=#
      [rows_in=# rows_out=# morsels=# workers=# hash_groups=# hash_slots=# load=# wall=#ms cpu=#ms]
  statement: /* FH = FH_# */
    [wall=#ms cpu=#ms]
)"));
}

// --- Predicted vs actual ----------------------------------------------------

TEST_F(ExplainAnalyzeTest, VpctTracePopulatesPredictedVsActual) {
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  Result<Table> result = db_.Query(kVpctSql, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(trace.query_class, "vertical-percentage");
  EXPECT_EQ(trace.strategy_source, "advisor");
  EXPECT_NE(trace.strategy.find("Fj-from-"), std::string::npos);
  // Candidates were costed and exactly one is marked chosen.
  ASSERT_GE(trace.predicted_costs.size(), 2u);
  int chosen = 0;
  for (const auto& c : trace.predicted_costs) {
    EXPECT_GT(c.cost, 0.0);
    if (c.chosen) ++chosen;
  }
  EXPECT_EQ(chosen, 1);
  // The cost model predicted |Fk| and the finest aggregate reported it.
  EXPECT_GT(trace.predicted_group_rows, 0.0);
  EXPECT_DOUBLE_EQ(trace.actual_group_rows,
                   static_cast<double>(result->num_rows()));
  EXPECT_GT(trace.ActualRowOps(), 0u);
  // The executed plan has statement nodes with operator children.
  EXPECT_FALSE(trace.root().children.empty());
}

TEST_F(ExplainAnalyzeTest, HpctTracePopulatesPredictedVsActual) {
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  Result<Table> result = db_.Query(kHpctSql, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(trace.query_class, "horizontal");
  ASSERT_EQ(trace.predicted_costs.size(), 5u);  // CASE/SPJ x F/FV + fused
  int chosen = 0;
  for (const auto& c : trace.predicted_costs) {
    if (c.chosen) ++chosen;
  }
  EXPECT_EQ(chosen, 1);
  EXPECT_GT(trace.predicted_group_rows, 0.0);
  EXPECT_DOUBLE_EQ(trace.actual_group_rows,
                   static_cast<double>(result->num_rows()));
}

// --- Surfacing through Query() ----------------------------------------------

TEST_F(ExplainAnalyzeTest, ExplainAnalyzeThroughQueryReturnsPlanColumn) {
  Result<Table> t = db_.Query(std::string("EXPLAIN ANALYZE ") + kVpctSql);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_columns(), 1u);
  EXPECT_EQ(t->schema().column(0).name, "plan");
  EXPECT_GT(t->num_rows(), 5u);
}

TEST_F(ExplainAnalyzeTest, PlainExplainStillReturnsScript) {
  Result<Table> t = db_.Query(std::string("EXPLAIN ") + kVpctSql);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_columns(), 1u);
  EXPECT_GT(t->num_rows(), 0u);
}

// The rows of a one-column "plan" table as text.
std::string PlanText(const Table& plan) {
  std::string text;
  for (size_t i = 0; i < plan.num_rows(); ++i) {
    text += plan.column(0).StringAt(i) + "\n";
  }
  return text;
}

// The "strategy: ..." line of an EXPLAIN or EXPLAIN ANALYZE text.
std::string StrategyLine(const std::string& text) {
  const size_t begin = text.find("strategy: ");
  if (begin == std::string::npos) return "";
  return text.substr(begin, text.find('\n', begin) - begin);
}

// Plain EXPLAIN plans under the caller's options, so it prints the plan
// EXPLAIN ANALYZE runs: a forced strategy and the dop both reach it.
TEST_F(ExplainAnalyzeTest, PlainExplainFollowsTheOptions) {
  QueryOptions update;
  update.vpct_strategy = VpctStrategy{};
  update.vpct_strategy->insert_result = false;
  Result<Table> plain =
      db_.Query(std::string("EXPLAIN ") + kVpctSql, update);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  std::string text = PlanText(*plain);
  EXPECT_EQ(StrategyLine(text),
            "strategy: Fj-from-Fk+UPDATE+lattice (forced)")
      << text;
  EXPECT_NE(text.find("\nUPDATE Fk_"), std::string::npos) << text;
  EXPECT_EQ(text.find("INSERT INTO FV_"), std::string::npos) << text;

  // At dop 4 the advisor ranks the horizontal methods by cost and picks
  // CASE-from-FV here, where the paper's dop-1 rule picks CASE-from-F.
  QueryOptions dop4;
  dop4.degree_of_parallelism = 4;
  plain = db_.Query(std::string("EXPLAIN ") + kHpctSql, dop4);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  text = PlanText(*plain);
  Result<std::string> analyzed = db_.ExplainAnalyze(kHpctSql, dop4);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(StrategyLine(text), StrategyLine(*analyzed)) << text;
  EXPECT_EQ(StrategyLine(text),
            "strategy: CASE-from-FV+hash-dispatch (advisor)")
      << text;
}

TEST_F(ExplainAnalyzeTest, ForcedStrategyIsReportedAsForced) {
  QueryOptions options;
  options.vpct_strategy = VpctStrategy{};
  obs::QueryTrace trace;
  options.trace = &trace;
  ASSERT_TRUE(db_.Query(kVpctSql, options).ok());
  EXPECT_EQ(trace.strategy_source, "forced");
}

// --- One statement, two paths ---------------------------------------------

// Every statement kind, its EXPLAIN and EXPLAIN ANALYZE forms and malformed
// statements reply alike through the server's executor and through
// embedded Execute, run in the same order on twin databases. EXPLAIN
// replies compare with numbers normalized: the paper's scripts name their
// temporary tables from a process-wide counter. The EXPLAIN ANALYZE of a
// SELECT is a window query's: a query with a partial plan shows the MQO
// gate's candidates, which only the server prices.
TEST(StatementPathsTest, ExecutorAgreesWithExecute) {
  const std::string csv = ::testing::TempDir() + "statement_paths.csv";
  ASSERT_TRUE(WriteCsvFile(GenerateSales(20, 7), csv).ok());
  const std::string copy = "COPY sales FROM '" + csv + "' (APPEND)";
  const std::string insert =
      "INSERT INTO sales (state, dweek, salesAmt) VALUES (1, 2, 3.5)";
  const std::vector<std::string> statements = {
      kVpctSql,
      std::string("EXPLAIN ") + kVpctSql,
      "EXPLAIN ANALYZE SELECT state, sum(salesAmt) OVER (PARTITION BY state) "
      "AS w FROM sales",
      insert,
      "EXPLAIN " + insert,
      "EXPLAIN ANALYZE " + insert,
      copy,
      "EXPLAIN " + copy,
      "EXPLAIN ANALYZE " + copy,
      "CREATE TABLE g AS SELECT dweek, sum(salesAmt) AS s FROM sales "
      "GROUP BY dweek",
      "SELECT dweek, s FROM g ORDER BY dweek",
      "CREATE TABLE g AS SELECT dweek FROM sales",
      "EXPLAIN DROP TABLE g",
      "EXPLAIN ANALYZE DROP TABLE g",
      "DROP TABLE g",
      "DROP TABLE g",
      "DROP TABLE IF EXISTS g",
      "CHECKPOINT;",
      "EXPLAIN CHECKPOINT",
      "EXPLAIN ANALYZE CHECKPOINT",
      "SELECT nope FROM sales",
      // Malformed.
      "CHECKPOINT now please",
      "EXPLAIN CREATE TABLE h AS SELECT state FROM sales",
      "CREATE TABLE h AS",
      "EXPLAIN",
      "DROP TABLE a b",
  };
  PctDatabase served_db, embedded;
  ASSERT_TRUE(served_db.CreateTable("sales", GenerateSales(400)).ok());
  ASSERT_TRUE(embedded.CreateTable("sales", GenerateSales(400)).ok());
  QueryExecutor executor(&served_db, ExecutorConfig{2, 8});
  for (const std::string& sql : statements) {
    SCOPED_TRACE(sql);
    Result<Table> served = executor.ExecuteStatement(sql, QueryOptions{}, 0);
    Result<Table> direct = embedded.Execute(sql);
    ASSERT_EQ(served.status().code(), direct.status().code())
        << served.status().ToString() << " vs " << direct.status().ToString();
    if (!served.ok()) continue;
    if (sql.rfind("EXPLAIN ", 0) == 0) {
      EXPECT_EQ(Normalize(FormatCsv(*served)), Normalize(FormatCsv(*direct)));
    } else {
      EXPECT_EQ(FormatCsv(*served), FormatCsv(*direct));
    }
  }
  std::remove(csv.c_str());
}

}  // namespace
}  // namespace pctagg
