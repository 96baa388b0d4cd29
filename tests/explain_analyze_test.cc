// Tests for EXPLAIN ANALYZE: statement-kind parsing, the rendered trace for
// one Vpct and one Hpct strategy on the paper's sales example (golden,
// numbers normalized), and the predicted-vs-actual cost-model fields.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "core/database.h"
#include "obs/trace.h"
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

// --- Statement-kind parsing -------------------------------------------------

TEST(ParseStatementKindTest, RecognizesExplainAndAnalyze) {
  Result<ParsedStatement> plain = ParseStatementKind("SELECT a FROM f");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);
  EXPECT_FALSE(plain->analyze);
  EXPECT_EQ(plain->select_sql, "SELECT a FROM f");

  Result<ParsedStatement> explain =
      ParseStatementKind("EXPLAIN SELECT a FROM f");
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->explain);
  EXPECT_FALSE(explain->analyze);
  EXPECT_EQ(explain->select_sql, "SELECT a FROM f");

  Result<ParsedStatement> analyze =
      ParseStatementKind("explain analyze SELECT a FROM f");
  ASSERT_TRUE(analyze.ok());
  EXPECT_TRUE(analyze->explain);
  EXPECT_TRUE(analyze->analyze);
  EXPECT_EQ(analyze->select_sql, "SELECT a FROM f");
}

TEST(ParseStatementKindTest, BareExplainIsAnError) {
  EXPECT_FALSE(ParseStatementKind("EXPLAIN").ok());
  EXPECT_FALSE(ParseStatementKind("EXPLAIN ANALYZE").ok());
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

}  // namespace
}  // namespace pctagg
