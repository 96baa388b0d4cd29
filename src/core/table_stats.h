#ifndef PCTAGG_CORE_TABLE_STATS_H_
#define PCTAGG_CORE_TABLE_STATS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"

namespace pctagg {

// The planner statistics kept with one base table (DESIGN.md, "Planner
// statistics"). Only the part that is costly to get is kept: for every
// non-string column, the number of distinct values in its first
// kSampleRows rows, plus that sample's length. PctDatabase keeps one record
// per base table current in the writers that change tables, so planning a
// query against an unchanged table never scans it.
//
// Base tables only grow at the end, so a prefix sample that already covers
// kSampleRows rows can never change; an append re-samples a column only
// while its prefix is still shorter than that.
class TableStats {
 public:
  // Rows sampled per column for its distinct count.
  static constexpr size_t kSampleRows = 20000;

  TableStats() = default;

  // Samples the prefix of every non-string column of `table`.
  static TableStats Collect(const Table& table);

  // Brings the record up to date after rows were appended at the end of
  // `table`, the table it was collected from.
  void Extend(const Table& table);

  // Whether this record is current for `table`: same columns, and every
  // sampled prefix as long as a fresh sample's would be. False for a table
  // changed behind its keeper's back.
  bool Describes(const Table& table) const;

  // Sample length and distinct count of column `idx` (0/0 for string
  // columns, which the planner reads from their live dictionaries).
  size_t sampled_rows(size_t idx) const { return columns_[idx].rows; }
  size_t sampled_distinct(size_t idx) const { return columns_[idx].distinct; }

 private:
  struct ColumnSample {
    size_t rows = 0;
    size_t distinct = 0;
  };

  std::vector<ColumnSample> columns_;  // index-aligned with the schema
};

// One column's planner estimate.
struct ColumnEstimate {
  std::string name;
  double distinct = 1;      // estimated number of distinct values
  bool dictionary = false;  // dictionary-encoded string column
  size_t dictionary_size = 0;
};

// What CostModel and StrategyAdvisor read about a table: its row count and
// per-column distinct-count estimates, resolved from a kept TableStats and
// the table's live row count and dictionaries. Dictionary sizes are read
// live because dictionaries are shared with derived tables (CREATE TABLE AS)
// and grow when another table that shares them is appended to.
//
// A PlannerStats is a self-contained copy: it stays valid after the table
// changes, which is how the sharded coordinator keeps the estimates of a
// table whose rows now live on the workers.
class PlannerStats {
 public:
  // An empty table without columns.
  PlannerStats() = default;

  // Resolves `kept`, a current record of `table`.
  PlannerStats(const Table& table, const TableStats& kept);

  // Samples `table` now, for callers that keep no record.
  static PlannerStats Sample(const Table& table);

  double rows() const { return static_cast<double>(rows_); }

  // Estimate of one column (case-insensitive name); NotFound if absent.
  Result<const ColumnEstimate*> FindColumn(const std::string& name) const;

  // Distinct values of one column: a string column's dictionary size
  // (capped at the row count), otherwise the prefix sample's distinct count,
  // extrapolated to the row count when every sampled value was distinct (a
  // key-like column). A shared dictionary may hold codes this column never
  // uses; that overcount only makes the cost model conservative.
  Result<double> Cardinality(const std::string& name) const;

  // Distinct combinations of `columns`: the product of their cardinalities
  // (independence assumption), capped at the row count.
  Result<double> ComboCardinality(const std::vector<std::string>& columns) const;

 private:
  size_t rows_ = 0;
  std::vector<ColumnEstimate> columns_;  // schema order
};

}  // namespace pctagg

#endif  // PCTAGG_CORE_TABLE_STATS_H_
