#include "sql/analyzer.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace pctagg {

namespace {

// Normalizes `name` to the schema's spelling; errors if absent.
Result<std::string> ResolveColumn(const Schema& schema,
                                  const std::string& name) {
  PCTAGG_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name));
  return schema.column(idx).name;
}

Result<std::vector<std::string>> ResolveColumns(
    const Schema& schema, const std::vector<std::string>& names) {
  std::vector<std::string> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    PCTAGG_ASSIGN_OR_RETURN(std::string resolved, ResolveColumn(schema, n));
    out.push_back(std::move(resolved));
  }
  return out;
}

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  for (const std::string& h : haystack) {
    if (EqualsIgnoreCase(h, needle)) return true;
  }
  return false;
}

// Derives a column name from an expression, e.g. "vpct_salesAmt".
std::string SynthesizeName(const SelectTerm& term, size_t position) {
  if (!term.alias.empty()) return term.alias;
  if (term.func == TermFunc::kScalar) {
    return term.argument->ToString();
  }
  std::string base = ToLower(TermFuncName(term.func));
  if (term.func == TermFunc::kCountStar) return base + "_star_" + std::to_string(position);
  std::string arg = term.argument->ToString();
  // Keep simple column-name arguments readable; fall back to positions.
  bool simple = !arg.empty() && std::all_of(arg.begin(), arg.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  });
  return base + "_" + (simple ? arg : std::to_string(position));
}

}  // namespace

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kProjection:
      return "projection";
    case QueryClass::kVertical:
      return "vertical-aggregate";
    case QueryClass::kVpct:
      return "vertical-percentage";
    case QueryClass::kHorizontal:
      return "horizontal";
    case QueryClass::kWindow:
      return "olap-window";
  }
  return "?";
}

Result<AnalyzedQuery> Analyze(const SelectStatement& stmt,
                              const Schema& schema) {
  AnalyzedQuery out;
  out.table_name = stmt.from_table;
  out.schema = schema;
  out.where = stmt.where;
  out.has_group_by = stmt.has_group_by;
  out.having = stmt.having;
  out.order_by = stmt.order_by;
  out.has_limit = stmt.has_limit;
  out.limit = stmt.limit;

  if (stmt.terms.empty()) {
    return Status::AnalysisError("SELECT list is empty");
  }
  if (stmt.where != nullptr) {
    PCTAGG_RETURN_IF_ERROR(stmt.where->ResultType(schema).status());
  }

  // Resolve GROUP BY entries: names, or 1-based SELECT positions.
  for (const std::string& entry : stmt.group_by) {
    if (IsInteger(entry)) {
      size_t pos = static_cast<size_t>(std::stoll(entry));
      if (pos < 1 || pos > stmt.terms.size()) {
        return Status::AnalysisError("GROUP BY position " + entry +
                                     " out of range");
      }
      const SelectTerm& t = stmt.terms[pos - 1];
      if (t.func != TermFunc::kScalar) {
        return Status::AnalysisError(
            "GROUP BY position " + entry + " refers to an aggregate term");
      }
      std::string rendered = t.argument->ToString();
      PCTAGG_ASSIGN_OR_RETURN(std::string name,
                              ResolveColumn(schema, rendered));
      out.group_by.push_back(std::move(name));
    } else {
      PCTAGG_ASSIGN_OR_RETURN(std::string name, ResolveColumn(schema, entry));
      out.group_by.push_back(std::move(name));
    }
  }
  // Duplicate grouping columns are almost certainly a bug in the query.
  {
    std::set<std::string> seen;
    for (const std::string& g : out.group_by) {
      if (!seen.insert(ToLower(g)).second) {
        return Status::AnalysisError("duplicate GROUP BY column: " + g);
      }
    }
  }

  // Expand CUBE/ROLLUP/GROUPING SETS into explicit levels. The union of all
  // levels (first-appearance order) becomes the statement's GROUP BY, so the
  // per-term rules below (Vpct BY subset, Hpct disjointness, scalar
  // membership) apply unchanged against the union.
  if (stmt.grouping_kind != SelectStatement::GroupingSetsKind::kNone) {
    out.has_grouping_sets = true;
    std::vector<std::vector<std::string>> raw_sets;
    if (stmt.grouping_kind == SelectStatement::GroupingSetsKind::kSets) {
      for (const std::vector<std::string>& set : stmt.grouping_sets) {
        PCTAGG_ASSIGN_OR_RETURN(std::vector<std::string> cols,
                                ResolveColumns(schema, set));
        std::set<std::string> dup;
        for (const std::string& c : cols) {
          if (!dup.insert(ToLower(c)).second) {
            return Status::AnalysisError("duplicate column in grouping set: " +
                                         c);
          }
        }
        raw_sets.push_back(std::move(cols));
      }
    } else {
      PCTAGG_ASSIGN_OR_RETURN(std::vector<std::string> cols,
                              ResolveColumns(schema, stmt.grouping_columns));
      std::set<std::string> dup;
      for (const std::string& c : cols) {
        if (!dup.insert(ToLower(c)).second) {
          return Status::AnalysisError("duplicate CUBE/ROLLUP column: " + c);
        }
      }
      const size_t k = cols.size();
      if (stmt.grouping_kind == SelectStatement::GroupingSetsKind::kCube) {
        // 2^k levels; cap k so a typo cannot demand thousands of levels.
        constexpr size_t kMaxCubeColumns = 6;
        if (k > kMaxCubeColumns) {
          return Status::AnalysisError(
              StrFormat("CUBE supports at most %zu columns (%zu given)",
                        kMaxCubeColumns, k));
        }
        // Bit (k-1-i) = column i, so descending masks enumerate subsets in
        // the conventional order (a,b,c), (a,b), (a,c), (a), (b,c), ... ;
        // the size sort below then yields finest-to-coarsest.
        for (size_t mask = size_t{1} << k; mask-- > 0;) {
          std::vector<std::string> set;
          for (size_t i = 0; i < k; ++i) {
            if ((mask >> (k - 1 - i)) & 1) set.push_back(cols[i]);
          }
          raw_sets.push_back(std::move(set));
        }
        std::stable_sort(raw_sets.begin(), raw_sets.end(),
                         [](const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
                           return a.size() > b.size();
                         });
      } else {  // ROLLUP: every prefix, longest first, down to ().
        for (size_t len = k + 1; len-- > 0;) {
          raw_sets.emplace_back(cols.begin(), cols.begin() + len);
        }
      }
    }
    for (const std::vector<std::string>& set : raw_sets) {
      for (const std::string& c : set) {
        if (!Contains(out.group_by, c)) out.group_by.push_back(c);
      }
    }
    // Normalize each level to union order; duplicate levels collapse.
    std::set<std::string> seen_levels;
    for (const std::vector<std::string>& set : raw_sets) {
      std::vector<std::string> normalized;
      for (const std::string& g : out.group_by) {
        if (Contains(set, g)) normalized.push_back(g);
      }
      std::string key;
      for (const std::string& c : normalized) key += ToLower(c) + "\x1f";
      if (seen_levels.insert(key).second) {
        out.grouping_sets.push_back(std::move(normalized));
      }
    }
  }

  bool any_vpct = false;
  bool any_horizontal = false;
  bool any_window = false;
  bool any_vertical_agg = false;

  for (size_t i = 0; i < stmt.terms.size(); ++i) {
    const SelectTerm& t = stmt.terms[i];
    AnalyzedTerm a;
    a.func = t.func;
    a.argument = t.argument;
    a.distinct = t.distinct;
    a.has_by = t.has_by;
    a.has_default = t.has_default;
    a.default_value = t.default_value;
    a.has_over = t.has_over;
    a.output_name = SynthesizeName(t, i + 1);

    if (t.distinct && t.func != TermFunc::kCount) {
      return Status::AnalysisError("DISTINCT is only supported in count()");
    }
    if (t.has_default && !t.has_by) {
      return Status::AnalysisError(
          "DEFAULT requires a horizontal aggregation (BY clause)");
    }
    if (t.has_over && (t.has_by || t.has_default)) {
      return Status::AnalysisError(
          "OVER (...) cannot be combined with BY/DEFAULT in one term");
    }

    if (t.argument != nullptr) {
      PCTAGG_ASSIGN_OR_RETURN(DataType arg_type, t.argument->ResultType(schema));
      bool numeric_required =
          t.func == TermFunc::kSum || t.func == TermFunc::kAvg ||
          t.func == TermFunc::kVpct || t.func == TermFunc::kHpct;
      if (numeric_required && arg_type == DataType::kString) {
        return Status::AnalysisError(std::string(TermFuncName(t.func)) +
                                     "() requires a numeric argument");
      }
    }

    if (t.has_by) {
      PCTAGG_ASSIGN_OR_RETURN(a.by_columns, ResolveColumns(schema, t.by_columns));
      std::set<std::string> seen;
      for (const std::string& b : a.by_columns) {
        if (!seen.insert(ToLower(b)).second) {
          return Status::AnalysisError("duplicate BY column: " + b);
        }
      }
    }

    switch (t.func) {
      case TermFunc::kScalar: {
        // Plain projections accept arbitrary expressions; grouped queries
        // additionally require scalar terms to be grouping columns (checked
        // after all terms are classified).
        std::string rendered = t.argument->ToString();
        Result<std::string> col = ResolveColumn(schema, rendered);
        if (col.ok()) a.scalar_column = col.value();
        break;
      }
      case TermFunc::kVpct: {
        if (t.has_over) {
          return Status::AnalysisError("Vpct() does not accept OVER (...)");
        }
        // Rule (1): GROUP BY is required.
        if (!stmt.has_group_by) {
          return Status::AnalysisError(
              "Vpct() requires a GROUP BY clause (rule 1)");
        }
        // Rule (2): BY columns must come from the GROUP BY list.
        for (const std::string& b : a.by_columns) {
          if (!Contains(out.group_by, b)) {
            return Status::AnalysisError(
                "Vpct() BY column " + b +
                " must appear in the GROUP BY clause (rule 2)");
          }
        }
        // Totals grouping: GROUP BY minus BY, preserving GROUP BY order.
        // With no BY clause, "all rows in F are used to compute totals"
        // (grand total), so totals_by stays empty. (The paper is internally
        // inconsistent about the BY-absent and BY==GROUP-BY corners; see
        // DESIGN.md for the reading implemented here.)
        if (t.has_by) {
          for (const std::string& g : out.group_by) {
            if (!Contains(a.by_columns, g)) a.totals_by.push_back(g);
          }
        }
        any_vpct = true;
        break;
      }
      case TermFunc::kHpct: {
        if (t.has_over) {
          return Status::AnalysisError("Hpct() does not accept OVER (...)");
        }
        // Rule (2): BY required, non-empty, disjoint from GROUP BY.
        if (!t.has_by || a.by_columns.empty()) {
          return Status::AnalysisError(
              "Hpct() requires a non-empty BY clause (rule 2)");
        }
        for (const std::string& b : a.by_columns) {
          if (Contains(out.group_by, b)) {
            return Status::AnalysisError(
                "Hpct() BY column " + b +
                " must be disjoint from the GROUP BY clause (rule 2)");
          }
        }
        any_horizontal = true;
        break;
      }
      case TermFunc::kGrouping: {
        if (t.has_over || t.has_by || t.distinct || t.has_default) {
          return Status::AnalysisError(
              "GROUPING() takes a single column argument");
        }
        if (!out.has_grouping_sets) {
          return Status::AnalysisError(
              "GROUPING() requires GROUP BY CUBE/ROLLUP/GROUPING SETS");
        }
        std::string rendered = t.argument->ToString();
        PCTAGG_ASSIGN_OR_RETURN(std::string name,
                                ResolveColumn(schema, rendered));
        if (!Contains(out.group_by, name)) {
          return Status::AnalysisError(
              "GROUPING() argument " + name +
              " does not appear in any grouping set");
        }
        a.scalar_column = std::move(name);
        break;
      }
      default: {  // standard functions
        if (t.has_over) {
          if (stmt.has_group_by) {
            return Status::AnalysisError(
                "window aggregates cannot be combined with GROUP BY");
          }
          PCTAGG_ASSIGN_OR_RETURN(a.partition_by,
                                  ResolveColumns(schema, t.partition_by));
          any_window = true;
        } else if (t.has_by) {
          // Horizontal aggregation (DMKD rules 2 and 4).
          if (a.by_columns.empty()) {
            return Status::AnalysisError(
                "horizontal aggregation requires a non-empty BY list");
          }
          for (const std::string& b : a.by_columns) {
            if (Contains(out.group_by, b)) {
              return Status::AnalysisError(
                  "horizontal aggregation BY column " + b +
                  " must be disjoint from the GROUP BY clause");
            }
          }
          any_horizontal = true;
        } else {
          any_vertical_agg = true;
        }
        break;
      }
    }
    out.terms.push_back(std::move(a));
  }

  if (any_vpct && any_horizontal) {
    return Status::AnalysisError(
        "combining Vpct() with horizontal aggregations in one statement is "
        "not supported (listed as an open problem in the paper)");
  }
  if (any_window && (any_vpct || any_horizontal || any_vertical_agg)) {
    return Status::AnalysisError(
        "window aggregates cannot be mixed with group aggregates");
  }

  // Scalar terms must be grouping columns when grouping happens.
  bool aggregated = any_vpct || any_horizontal || any_vertical_agg;
  for (const AnalyzedTerm& a : out.terms) {
    if (a.func != TermFunc::kScalar) continue;
    if (stmt.has_group_by) {
      if (a.scalar_column.empty()) {
        return Status::AnalysisError(
            "scalar SELECT term must be a grouping column reference: " +
            a.argument->ToString());
      }
      if (!Contains(out.group_by, a.scalar_column)) {
        return Status::AnalysisError("column " + a.scalar_column +
                                     " must appear in the GROUP BY clause");
      }
    } else if (aggregated) {
      return Status::AnalysisError(
          "column " + a.argument->ToString() +
          " cannot be selected alongside aggregates without GROUP BY");
    }
  }

  if (any_vpct) {
    out.query_class = QueryClass::kVpct;
  } else if (any_horizontal) {
    out.query_class = QueryClass::kHorizontal;
  } else if (any_window) {
    out.query_class = QueryClass::kWindow;
  } else if (aggregated || stmt.has_group_by) {
    out.query_class = QueryClass::kVertical;
  } else {
    out.query_class = QueryClass::kProjection;
  }
  return out;
}

Result<Table> BuildInsertDelta(const InsertStatement& stmt,
                               const Schema& schema) {
  // Map each schema position to its literal index within a VALUES row, or
  // SIZE_MAX for columns the statement omits (filled with NULL below).
  std::vector<size_t> source_of(schema.num_columns(), SIZE_MAX);
  if (stmt.columns.empty()) {
    if (!stmt.rows.empty() && stmt.rows.front().size() != schema.num_columns()) {
      return Status::InvalidArgument(StrFormat(
          "INSERT INTO %s expects %zu values per row, got %zu", stmt.table.c_str(),
          schema.num_columns(), stmt.rows.front().size()));
    }
    for (size_t i = 0; i < schema.num_columns(); ++i) source_of[i] = i;
  } else {
    for (size_t j = 0; j < stmt.columns.size(); ++j) {
      PCTAGG_ASSIGN_OR_RETURN(size_t idx,
                              schema.FindColumn(stmt.columns[j]));
      if (source_of[idx] != SIZE_MAX) {
        return Status::InvalidArgument("INSERT names column " +
                                       stmt.columns[j] + " twice");
      }
      source_of[idx] = j;
    }
  }
  Table delta{schema};
  delta.Reserve(stmt.rows.size());
  std::vector<Value> bound(schema.num_columns());
  for (const std::vector<Value>& row : stmt.rows) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      bound[i] = source_of[i] == SIZE_MAX ? Value::Null() : row[source_of[i]];
    }
    // AppendRow type-checks each cell against the schema (and widens int
    // literals into FLOAT64 columns).
    PCTAGG_RETURN_IF_ERROR(delta.AppendRow(bound));
  }
  return delta;
}

}  // namespace pctagg
