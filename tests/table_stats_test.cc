// Planner statistics kept with each base table (core/table_stats.h): after
// every writer that changes a table, each estimate the planner reads must
// equal a fresh sample of the table's current contents, and planning against
// an unchanged table must sample nothing.

#include "core/table_stats.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/database.h"
#include "obs/metrics.h"
#include "server/executor.h"
#include "storage/storage.h"

namespace pctagg {
namespace {

constexpr char kSamplesMetric[] = "pctagg_planner_stats_samples_total";

uint64_t Samples() { return obs::GlobalMetrics().CounterValue(kSamplesMetric); }

// Key-like k, low-cardinality g, a float measure with NULLs, and a
// dictionary-encoded string column: three sampled columns, one read live.
Schema FactSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"g", DataType::kInt64},
                 {"x", DataType::kFloat64},
                 {"s", DataType::kString}});
}

std::string City(size_t i) { return "city" + std::to_string(i % 5); }

Table Fact(size_t n, size_t first = 0) {
  Table t(FactSchema());
  t.Reserve(n);
  for (size_t i = first; i < first + n; ++i) {
    Value x = i % 11 == 0 ? Value::Null()
                          : Value::Float64(static_cast<double>(i * 37 % 1000));
    t.AppendRow({Value::Int64(static_cast<int64_t>(i)),
                 Value::Int64(static_cast<int64_t>(i % 7)), x,
                 Value::String(City(i))});
  }
  return t;
}

// INSERT of `n` fact rows with keys first.., all in the city `city`.
std::string InsertSql(const std::string& table, size_t first, size_t n,
                      const std::string& city = "city0") {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = first; i < first + n; ++i) {
    if (i > first) sql += ", ";
    sql += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ", " +
           std::to_string(i % 13) + ".5, '" + city + "')";
  }
  return sql;
}

// The estimate the planner used before statistics were kept, computed
// independently from the table's contents: distinct values over the first
// 20,000 rows, extrapolated to n when every sampled value was distinct;
// string columns read their dictionary.
double ReferenceCardinality(const Table& t, size_t idx) {
  const Column& col = t.column(idx);
  const double n = static_cast<double>(t.num_rows());
  if (col.type() == DataType::kString) {
    return std::min(static_cast<double>(col.dict()->size()), std::max(1.0, n));
  }
  const size_t limit = std::min<size_t>(t.num_rows(), 20000);
  std::unordered_set<std::string> seen;
  std::string key;
  for (size_t row = 0; row < limit; ++row) {
    key.clear();
    t.AppendKeyBytes(row, {idx}, &key);
    seen.insert(key);
  }
  if (limit > 0 && seen.size() == limit && t.num_rows() > limit) return n;
  return static_cast<double>(seen.size());
}

// Every estimate the planner reads for `name` matches the reference over
// the table's current contents, and reading them takes no sample.
void ExpectCurrent(const PctDatabase& db, const std::string& name) {
  const uint64_t before = Samples();
  Result<PlannerStats> kept = db.PlannerStatistics(name);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(Samples(), before) << name << ": planning sampled the table";
  const Table& t = *db.catalog().GetTable(name).value();
  EXPECT_EQ(kept->rows(), static_cast<double>(t.num_rows())) << name;
  for (size_t i = 0; i < t.num_columns(); ++i) {
    const std::string& col = t.schema().column(i).name;
    Result<const ColumnEstimate*> est = kept->FindColumn(col);
    ASSERT_TRUE(est.ok()) << name << "." << col;
    EXPECT_EQ((*est)->distinct, ReferenceCardinality(t, i))
        << name << "." << col;
    const bool dictionary = t.column(i).type() == DataType::kString;
    EXPECT_EQ((*est)->dictionary, dictionary) << name << "." << col;
    if (dictionary) {
      EXPECT_EQ((*est)->dictionary_size, t.column(i).dict()->size())
          << name << "." << col;
    }
  }
}

class TempDir {
 public:
  TempDir() {
    std::string tmpl = "/tmp/pctagg_table_stats_test_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

// --- Lifecycle ---------------------------------------------------------------

TEST(TableStatsLifecycle, CreateAndCreateTableAs) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", Fact(30000)).ok());
  {
    SCOPED_TRACE("CREATE");
    ExpectCurrent(db, "t");
  }
  ASSERT_TRUE(
      db.CreateTableAs("c", "SELECT k, s, x FROM t WHERE g < 3").ok());
  {
    SCOPED_TRACE("CREATE TABLE AS");
    ExpectCurrent(db, "c");
  }
}

TEST(TableStatsLifecycle, AppendsBelowAcrossAndAbovePrefix) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", Fact(1000)).ok());
  ASSERT_TRUE(db.Execute(InsertSql("t", 1000, 10)).ok());
  {
    SCOPED_TRACE("INSERT below the prefix");
    ExpectCurrent(db, "t");
  }

  ASSERT_TRUE(db.ReplaceTable("t", Fact(19990)).ok());
  const std::string path = ::testing::TempDir() + "table_stats_test.csv";
  {
    std::ofstream out(path);
    out << "k,g,x,s\n";
    for (size_t i = 19990; i < 20040; ++i) {
      out << i << "," << i % 7 << "," << i % 13 << ".5," << City(i) << "\n";
    }
  }
  Result<Table> copied = db.Execute("COPY t FROM '" + path + "' (APPEND)");
  std::remove(path.c_str());
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  {
    SCOPED_TRACE("COPY across the prefix");
    ExpectCurrent(db, "t");
  }

  // A key-like column now saturates its 20,000-row sample; further appends
  // keep the sample and move only the extrapolated estimate.
  ASSERT_TRUE(db.Execute(InsertSql("t", 20040, 25)).ok());
  {
    SCOPED_TRACE("INSERT above the prefix");
    ExpectCurrent(db, "t");
  }
}

TEST(TableStatsLifecycle, ReplaceTable) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", Fact(500)).ok());
  ASSERT_TRUE(db.ReplaceTable("t", Fact(25000, 100)).ok());
  SCOPED_TRACE("GEN / ReplaceTable");
  ExpectCurrent(db, "t");
}

TEST(TableStatsLifecycle, DropThenRecreateUnderSameName) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", Fact(25000)).ok());
  ASSERT_TRUE(db.Execute("DROP TABLE t").ok());
  EXPECT_FALSE(db.PlannerStatistics("t").ok());
  // Same name, other columns and contents.
  Table other(Schema({{"s", DataType::kString}, {"v", DataType::kInt64}}));
  for (int i = 0; i < 300; ++i) {
    other.AppendRow({Value::String(City(static_cast<size_t>(i))),
                     Value::Int64(i % 3)});
  }
  ASSERT_TRUE(db.CreateTable("T", std::move(other)).ok());
  SCOPED_TRACE("DROP then CREATE");
  ExpectCurrent(db, "t");
}

TEST(TableStatsLifecycle, StorageRecovery) {
  TempDir dir;
  storage::StorageOptions opts;
  opts.data_dir = dir.File("db");
  {
    PctDatabase db;
    ASSERT_TRUE(db.OpenStorage(opts).ok());
    ASSERT_TRUE(db.CreateTable("t", Fact(19980)).ok());
    // Logged to the WAL only: recovery replays it across the prefix.
    ASSERT_TRUE(db.Execute(InsertSql("t", 19980, 40, "elsewhere")).ok());
  }
  PctDatabase db;
  ASSERT_TRUE(db.OpenStorage(opts).ok());
  ASSERT_EQ(db.catalog().GetTable("t").value()->num_rows(), 20020u);
  SCOPED_TRACE("OpenStorage recovery");
  ExpectCurrent(db, "t");
}

TEST(TableStatsLifecycle, AppendToSourceOfSharedDictionary) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", Fact(2000)).ok());
  ASSERT_TRUE(db.CreateTableAs("c", "SELECT s, k FROM t").ok());
  const Table& c = *db.catalog().GetTable("c").value();
  const size_t dict_before = c.column(0).dict()->size();
  // New cities grow t's dictionary, which c's string column shares.
  ASSERT_TRUE(db.Execute(InsertSql("t", 2000, 3, "brand-new-city")).ok());
  EXPECT_GE(c.column(0).dict()->size(), dict_before);
  SCOPED_TRACE("append to a table whose dictionary c shares");
  ExpectCurrent(db, "c");
  ExpectCurrent(db, "t");
}

// --- pctagg_planner_stats_samples_total ---------------------------------------

TEST(TableStatsCounter, CreateSamplesEachNumericColumnOnce) {
  PctDatabase db;
  const uint64_t before = Samples();
  ASSERT_TRUE(db.CreateTable("t", Fact(30000)).ok());
  EXPECT_EQ(Samples() - before, 3u);  // k, g, x; s is read from its dictionary
}

TEST(TableStatsCounter, FlatAcrossRepeatedQueriesOnUnchangedTable) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", Fact(30000)).ok());
  const std::vector<std::string> queries = {
      "SELECT g, s, Vpct(x BY s) AS pct FROM t GROUP BY g, s",
      "SELECT g, Hpct(x BY s) FROM t GROUP BY g",
      "SELECT g, s, sum(x) AS total FROM t GROUP BY CUBE(g, s)",
      "EXPLAIN ANALYZE SELECT g, s, Vpct(x BY s) AS pct FROM t GROUP BY g, s",
  };
  const uint64_t before = Samples();
  for (int i = 0; i < 100; ++i) {
    const std::string& sql = queries[static_cast<size_t>(i) % queries.size()];
    Result<Table> r = db.Query(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  EXPECT_EQ(Samples(), before);
}

TEST(TableStatsCounter, FlatAcrossAppendPastPrefix) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", Fact(25000)).ok());
  const uint64_t before = Samples();
  ASSERT_TRUE(db.Execute(InsertSql("t", 25000, 50)).ok());
  EXPECT_EQ(Samples(), before);
  ExpectCurrent(db, "t");
}

TEST(TableStatsCounter, AppendToSmallTableSamplesEachNumericColumnOnce) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", Fact(100)).ok());
  const uint64_t before = Samples();
  ASSERT_TRUE(db.Execute(InsertSql("t", 100, 20)).ok());
  EXPECT_EQ(Samples() - before, 3u);
  ExpectCurrent(db, "t");
}

// --- Concurrency (table_stats_tsan) -------------------------------------------

// Sessions plan Vpct, Hpct, CUBE and EXPLAIN ANALYZE queries through the
// executor while an INSERT writer grows the table across the 20,000-row
// prefix, so kept records are re-sampled and swapped mid-stress.
TEST(TableStatsStress, PlanningWhileInsertsInterleave) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", Fact(19950)).ok());
  QueryExecutor executor(&db, ExecutorConfig{4, 64});
  const std::vector<std::string> queries = {
      "SELECT g, s, Vpct(x BY s) AS pct FROM f GROUP BY g, s",
      "SELECT g, Hpct(x BY s) FROM f GROUP BY g",
      "SELECT g, s, sum(x) AS total FROM f GROUP BY CUBE(g, s)",
      "EXPLAIN ANALYZE SELECT g, Hpct(x BY s) FROM f GROUP BY g",
  };
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  auto reader = [&](size_t id) {
    for (size_t i = id; i < id + 4 || !stop.load(); ++i) {
      Result<Table> r = executor.ExecuteStatement(
          queries[i % queries.size()], QueryOptions{}, /*timeout_ms=*/0);
      if (!r.ok()) ++failures;
    }
  };
  std::vector<std::thread> readers;
  for (size_t id = 0; id < 3; ++id) readers.emplace_back(reader, id);
  for (size_t batch = 0; batch < 10; ++batch) {
    Result<Table> r = executor.ExecuteStatement(
        InsertSql("f", 19950 + batch * 10, 10), QueryOptions{},
        /*timeout_ms=*/0);
    if (!r.ok()) ++failures;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  ExpectCurrent(db, "f");
}

}  // namespace
}  // namespace pctagg
