#include "core/table_stats.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace pctagg {

namespace {

obs::Counter& SamplesCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_planner_stats_samples_total",
      "Column prefix samples taken for planner statistics");
  return c;
}

// Distinct values among the first `limit` rows of column `idx`.
size_t SampleDistinct(const Table& table, size_t idx, size_t limit) {
  SamplesCounter().Add();
  std::unordered_set<std::string> seen;
  std::string key;
  const std::vector<size_t> cols = {idx};
  for (size_t row = 0; row < limit; ++row) {
    key.clear();
    table.AppendKeyBytes(row, cols, &key);
    seen.insert(key);
  }
  return seen.size();
}

}  // namespace

TableStats TableStats::Collect(const Table& table) {
  TableStats stats;
  stats.columns_.resize(table.num_columns());
  stats.Extend(table);
  return stats;
}

void TableStats::Extend(const Table& table) {
  if (columns_.size() != table.num_columns()) {
    *this = Collect(table);
    return;
  }
  const size_t limit = std::min(table.num_rows(), kSampleRows);
  for (size_t i = 0; i < columns_.size(); ++i) {
    ColumnSample& sample = columns_[i];
    // A prefix that already covers `limit` rows is the prefix a fresh
    // sample would read.
    if (table.column(i).type() == DataType::kString || sample.rows == limit) {
      continue;
    }
    sample.rows = limit;
    sample.distinct = SampleDistinct(table, i, limit);
  }
}

bool TableStats::Describes(const Table& table) const {
  if (columns_.size() != table.num_columns()) return false;
  const size_t limit = std::min(table.num_rows(), kSampleRows);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (table.column(i).type() != DataType::kString &&
        columns_[i].rows != limit) {
      return false;
    }
  }
  return true;
}

PlannerStats::PlannerStats(const Table& table, const TableStats& kept)
    : rows_(table.num_rows()) {
  columns_.reserve(table.num_columns());
  for (size_t i = 0; i < table.num_columns(); ++i) {
    const pctagg::Column& col = table.column(i);
    ColumnEstimate est;
    est.name = table.schema().column(i).name;
    if (col.type() == DataType::kString) {
      est.dictionary = true;
      est.dictionary_size = col.dict()->size();
      est.distinct = std::min(static_cast<double>(est.dictionary_size),
                              std::max(1.0, static_cast<double>(rows_)));
    } else {
      const size_t sampled = kept.sampled_rows(i);
      const size_t distinct = kept.sampled_distinct(i);
      est.distinct = static_cast<double>(distinct);
      if (sampled > 0 && distinct == sampled && rows_ > sampled) {
        est.distinct = static_cast<double>(rows_);
      }
    }
    columns_.push_back(std::move(est));
  }
}

PlannerStats PlannerStats::Sample(const Table& table) {
  return PlannerStats(table, TableStats::Collect(table));
}

Result<const ColumnEstimate*> PlannerStats::FindColumn(
    const std::string& name) const {
  for (const ColumnEstimate& c : columns_) {
    if (EqualsIgnoreCase(c.name, name)) return &c;
  }
  return Status::NotFound("column not found: " + name);
}

Result<double> PlannerStats::Cardinality(const std::string& name) const {
  PCTAGG_ASSIGN_OR_RETURN(const ColumnEstimate* c, FindColumn(name));
  return c->distinct;
}

Result<double> PlannerStats::ComboCardinality(
    const std::vector<std::string>& columns) const {
  double product = 1.0;
  for (const std::string& name : columns) {
    PCTAGG_ASSIGN_OR_RETURN(double card, Cardinality(name));
    product *= std::max(card, 1.0);
  }
  return std::min(product, std::max(1.0, rows()));
}

}  // namespace pctagg
