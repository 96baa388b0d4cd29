// Tests for the incremental append path: INSERT/COPY parsing, delta
// construction, AppendRows' delta maintenance of cached summaries
// (merge vs drop-for-recompute), statement dispatch through Execute, and
// the EXPLAIN [ANALYZE] surface for writes.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/rng.h"
#include "core/database.h"
#include "engine/csv.h"
#include "engine/table_ops.h"
#include "sql/analyzer.h"
#include "sql/parser.h"

namespace pctagg {
namespace {

Table RandomFact(uint64_t seed, size_t n = 400) {
  Rng rng(seed);
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  for (size_t i = 0; i < n; ++i) {
    t.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(4))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(5))),
                 Value::Float64(1.0 + rng.NextDouble() * 9.0)});
  }
  return t;
}

constexpr char kVpctSql[] =
    "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2 "
    "ORDER BY d1, d2";

// --- Parsing ---------------------------------------------------------------

TEST(InsertParseTest, PositionalValues) {
  Result<InsertStatement> r =
      ParseInsert("INSERT INTO f VALUES (1, 2, 3.5), (2, NULL, -1.25)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table, "f");
  EXPECT_TRUE(r->columns.empty());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0], Value::Int64(1));
  EXPECT_EQ(r->rows[0][2], Value::Float64(3.5));
  EXPECT_TRUE(r->rows[1][1].is_null());
  EXPECT_EQ(r->rows[1][2], Value::Float64(-1.25));
}

TEST(InsertParseTest, NamedColumnsAndStrings) {
  Result<InsertStatement> r =
      ParseInsert("INSERT INTO sales (state, amt) VALUES ('CA', 10)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->columns.size(), 2u);
  EXPECT_EQ(r->columns[0], "state");
  EXPECT_EQ(r->rows[0][0], Value::String("CA"));
}

TEST(InsertParseTest, RejectsMalformedStatements) {
  EXPECT_FALSE(ParseInsert("INSERT INTO f (d1) VALUES (1, 2)").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO f VALUES (1, 2), (1)").ok());
  EXPECT_FALSE(ParseInsert("INSERT INTO f SELECT * FROM g").ok());
  EXPECT_FALSE(ParseInsert("INSERT f VALUES (1)").ok());
}

TEST(CopyParseTest, RequiresAppendOption) {
  Result<CopyStatement> r = ParseCopy("COPY f FROM 'delta.csv' (APPEND)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->table, "f");
  EXPECT_EQ(r->path, "delta.csv");
  EXPECT_TRUE(r->append);
  EXPECT_FALSE(ParseCopy("COPY f FROM 'delta.csv'").ok());
}

TEST(StatementKindTest, ClassifiesWrites) {
  EXPECT_EQ(ParseStatement("INSERT INTO f VALUES (1)")->kind,
            Statement::Kind::kInsert);
  EXPECT_EQ(ParseStatement("copy f from 'x' (append)")->kind,
            Statement::Kind::kCopy);
  EXPECT_EQ(ParseStatement("EXPLAIN ANALYZE INSERT INTO f VALUES (1)")->kind,
            Statement::Kind::kInsert);
  EXPECT_EQ(ParseStatement("SELECT d1 FROM f")->kind,
            Statement::Kind::kSelect);
}

// --- Delta construction ----------------------------------------------------

TEST(InsertDeltaTest, OmittedColumnsBecomeNull) {
  Schema schema({{"d1", DataType::kInt64},
                 {"d2", DataType::kInt64},
                 {"a", DataType::kFloat64}});
  InsertStatement stmt =
      ParseInsert("INSERT INTO f (a, d1) VALUES (2.5, 7)").value();
  Result<Table> delta = BuildInsertDelta(stmt, schema);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta->num_rows(), 1u);
  EXPECT_EQ(delta->column(0).GetValue(0), Value::Int64(7));
  EXPECT_TRUE(delta->column(1).IsNull(0));  // d2 omitted
  EXPECT_EQ(delta->column(2).GetValue(0), Value::Float64(2.5));
}

TEST(InsertDeltaTest, WidensIntToFloatAndChecksTypes) {
  Schema schema({{"a", DataType::kFloat64}});
  Result<Table> widened = BuildInsertDelta(
      ParseInsert("INSERT INTO f VALUES (3)").value(), schema);
  ASSERT_TRUE(widened.ok());
  EXPECT_EQ(widened->column(0).GetValue(0), Value::Float64(3.0));
  EXPECT_FALSE(BuildInsertDelta(
                   ParseInsert("INSERT INTO f VALUES ('x')").value(), schema)
                   .ok());
}

TEST(InsertDeltaTest, RejectsUnknownOrDuplicateColumns) {
  Schema schema({{"d1", DataType::kInt64}});
  EXPECT_FALSE(BuildInsertDelta(
                   ParseInsert("INSERT INTO f (nope) VALUES (1)").value(),
                   schema)
                   .ok());
  EXPECT_FALSE(BuildInsertDelta(
                   ParseInsert("INSERT INTO f (d1, d1) VALUES (1, 2)").value(),
                   schema)
                   .ok());
  EXPECT_FALSE(BuildInsertDelta(
                   ParseInsert("INSERT INTO f VALUES (1, 2)").value(), schema)
                   .ok());
}

// --- AppendRows: delta maintenance -----------------------------------------

// After a cached query and an append, the next query must answer from the
// delta-merged summary and agree with a from-scratch database holding the
// full data.
TEST(AppendDeltaTest, MergedSummaryMatchesRecompute) {
  Table base = RandomFact(1, 400);
  Table delta = RandomFact(2, 60);

  PctDatabase merged_db;
  merged_db.EnableSummaryCache(true);
  ASSERT_TRUE(merged_db.CreateTable("f", base).ok());
  ASSERT_TRUE(merged_db.Query(kVpctSql).ok());  // fills the cache
  ASSERT_EQ(merged_db.summaries().size(), 1u);

  QueryOptions force_merge;
  force_merge.append_policy = AppendPolicy::kMerge;
  Result<AppendOutcome> outcome = merged_db.AppendRows("f", delta, force_merge);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->rows_appended, delta.num_rows());
  EXPECT_EQ(outcome->summaries_merged, 1u);
  EXPECT_EQ(outcome->summaries_recomputed, 0u);
  // The merged entry is live: the follow-up query hits it.
  size_t hits_before = merged_db.summaries().hits();
  Table after = merged_db.Query(kVpctSql).value();
  EXPECT_GT(merged_db.summaries().hits(), hits_before);

  PctDatabase fresh_db;
  Table full = base;
  ASSERT_TRUE(InsertInto(&full, delta).ok());
  ASSERT_TRUE(fresh_db.CreateTable("f", std::move(full)).ok());
  Table want = fresh_db.Query(kVpctSql).value();

  ASSERT_EQ(after.num_rows(), want.num_rows());
  for (size_t i = 0; i < want.num_rows(); ++i) {
    EXPECT_EQ(after.column(0).GetValue(i), want.column(0).GetValue(i));
    EXPECT_EQ(after.column(1).GetValue(i), want.column(1).GetValue(i));
    EXPECT_NEAR(after.column(2).Float64At(i), want.column(2).Float64At(i),
                1e-9);
  }
}

TEST(AppendDeltaTest, RecomputePolicyDropsEntries) {
  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable("f", RandomFact(3)).ok());
  ASSERT_TRUE(db.Query(kVpctSql).ok());
  ASSERT_EQ(db.summaries().size(), 1u);
  QueryOptions force;
  force.append_policy = AppendPolicy::kRecompute;
  Result<AppendOutcome> outcome = db.AppendRows("f", RandomFact(4, 50), force);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->summaries_merged, 0u);
  EXPECT_EQ(outcome->summaries_recomputed, 1u);
  EXPECT_EQ(db.summaries().size(), 0u);
  // The next query recomputes from the extended table and re-fills.
  ASSERT_TRUE(db.Query(kVpctSql).ok());
  EXPECT_EQ(db.summaries().size(), 1u);
}

// The cost model should merge small deltas and recompute when the "delta" is
// comparable to the whole table.
TEST(AppendDeltaTest, AutoPolicyMergesSmallDeltas) {
  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable("f", RandomFact(5, 5000)).ok());
  ASSERT_TRUE(db.Query(kVpctSql).ok());
  Result<AppendOutcome> outcome = db.AppendRows("f", RandomFact(6, 50));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->summaries_merged, 1u);
}

TEST(AppendDeltaTest, AppendWithoutCacheJustAddsRows) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(7, 100)).ok());
  Result<AppendOutcome> outcome = db.AppendRows("f", RandomFact(8, 10));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rows_appended, 10u);
  EXPECT_EQ(outcome->summaries_merged, 0u);
  EXPECT_EQ(outcome->summaries_recomputed, 0u);
  EXPECT_EQ(db.catalog().GetTable("f").value()->num_rows(), 110u);
}

TEST(AppendDeltaTest, SchemaMismatchIsRejected) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(9, 10)).ok());
  Table bad(Schema({{"x", DataType::kString}}));
  ASSERT_TRUE(bad.AppendRow({Value::String("nope")}).ok());
  EXPECT_FALSE(db.AppendRows("f", bad).ok());
  EXPECT_FALSE(db.AppendRows("missing", RandomFact(10, 5)).ok());
}

// String dimensions: the delta re-interns into the base table's dictionaries,
// including values the base has never seen, and the merged summary still
// matches a recompute.
TEST(AppendDeltaTest, StringDimensionsWithNovelValues) {
  auto make = [](std::initializer_list<std::pair<const char*, int64_t>> rows) {
    Table t(Schema({{"region", DataType::kString}, {"q", DataType::kInt64}}));
    for (const auto& [r, q] : rows) {
      EXPECT_TRUE(t.AppendRow({Value::String(r), Value::Int64(q)}).ok());
    }
    return t;
  };
  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable(
                    "f", make({{"north", 10}, {"south", 20}, {"north", 5}}))
                  .ok());
  const std::string sql =
      "SELECT region, Vpct(q) AS pct FROM f GROUP BY region ORDER BY region";
  ASSERT_TRUE(db.Query(sql).ok());
  QueryOptions force_merge;
  force_merge.append_policy = AppendPolicy::kMerge;
  // "east" is a novel dictionary value; "north" extends an existing group.
  Result<AppendOutcome> outcome =
      db.AppendRows("f", make({{"east", 15}, {"north", 5}}), force_merge);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->summaries_merged, 1u);
  Table got = db.Query(sql).value();
  // Totals: east 15, north 20, south 20 of 55.
  ASSERT_EQ(got.num_rows(), 3u);
  EXPECT_EQ(got.column(0).GetValue(0), Value::String("east"));
  EXPECT_NEAR(got.column(1).Float64At(0), 15.0 / 55.0, 1e-12);
  EXPECT_NEAR(got.column(1).Float64At(1), 20.0 / 55.0, 1e-12);
  EXPECT_NEAR(got.column(1).Float64At(2), 20.0 / 55.0, 1e-12);
}

// --- Execute: statement dispatch -------------------------------------------

TEST(ExecuteTest, InsertStatementAppendsAndReportsOutcome) {
  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable("f", RandomFact(11, 200)).ok());
  ASSERT_TRUE(db.Query(kVpctSql).ok());
  Result<Table> r =
      db.Execute("INSERT INTO f VALUES (1, 2, 4.5), (3, 0, 1.5)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->ColumnByName("rows_appended").value()->GetValue(0),
            Value::Int64(2));
  EXPECT_EQ(r->ColumnByName("summaries_merged").value()->GetValue(0),
            Value::Int64(1));
  EXPECT_EQ(db.catalog().GetTable("f").value()->num_rows(), 202u);
}

TEST(ExecuteTest, SelectStillGoesThroughQuery) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(12, 50)).ok());
  Result<Table> r = db.Execute(kVpctSql);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->num_rows(), 0u);
}

TEST(ExecuteTest, QueryRejectsWriteStatements) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(13, 10)).ok());
  EXPECT_FALSE(db.Query("INSERT INTO f VALUES (1, 2, 3.0)").ok());
}

TEST(ExecuteTest, CopyAppendsFromCsv) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(14, 20)).ok());
  std::string path = ::testing::TempDir() + "append_delta_test.csv";
  {
    std::ofstream out(path);
    out << "d1,d2,a\n1,2,3.5\n0,4,2.25\n";
  }
  Result<Table> r =
      db.Execute("COPY f FROM '" + path + "' (APPEND)");
  std::remove(path.c_str());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->ColumnByName("rows_appended").value()->GetValue(0),
            Value::Int64(2));
  EXPECT_EQ(db.catalog().GetTable("f").value()->num_rows(), 22u);
  // COPY without (APPEND) stays rejected end to end.
  EXPECT_FALSE(db.Execute("COPY f FROM '" + path + "'").ok());
}

TEST(ExecuteTest, ExplainAnalyzeInsertShowsCandidates) {
  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable("f", RandomFact(15, 300)).ok());
  ASSERT_TRUE(db.Query(kVpctSql).ok());
  Result<Table> r =
      db.Execute("EXPLAIN ANALYZE INSERT INTO f VALUES (1, 2, 3.0)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text = FormatCsv(*r);
  EXPECT_NE(text.find("append"), std::string::npos) << text;
  EXPECT_NE(text.find("delta-merge["), std::string::npos) << text;
  EXPECT_NE(text.find("recompute["), std::string::npos) << text;
  // And the row actually landed (ANALYZE executes).
  EXPECT_EQ(db.catalog().GetTable("f").value()->num_rows(), 301u);

  // Plain EXPLAIN describes the path without running it.
  Result<Table> plain =
      db.Execute("EXPLAIN INSERT INTO f VALUES (1, 2, 3.0)");
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(FormatCsv(*plain).find("append path"), std::string::npos);
  EXPECT_EQ(db.catalog().GetTable("f").value()->num_rows(), 301u);
}

}  // namespace
}  // namespace pctagg
