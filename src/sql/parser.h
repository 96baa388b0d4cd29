#ifndef PCTAGG_SQL_PARSER_H_
#define PCTAGG_SQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "sql/ast.h"

namespace pctagg {

// The grammar of the extended SQL dialect. ParseStatement below is the entry
// point the surfaces use; the others parse one statement kind each.
//
// Parses one SELECT statement in the extended SQL dialect:
//
//   SELECT state, city, Vpct(salesAmt BY city)
//   FROM sales GROUP BY state, city;
//
//   SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt)
//   FROM sales GROUP BY store;
//
//   SELECT transactionId, max(1 BY deptId DEFAULT 0)
//   FROM transactionLine GROUP BY transactionId;
//
//   SELECT D1, sum(A) OVER (PARTITION BY D1) FROM F;   -- OLAP baseline
//
// Scalar expressions support literals, column references, arithmetic,
// comparisons, AND/OR/NOT, IS [NOT] NULL and CASE WHEN.
Result<SelectStatement> ParseSelect(const std::string& sql);

// Parses one append statement:
//
//   INSERT INTO sales (state, city, salesAmt) VALUES
//     ('CA', 'la', 12.5), ('TX', NULL, 3);
//
// Literals are integers, floats (optionally negated), strings and NULL. An
// omitted column list means "all columns in schema order"; binding against
// the schema happens in the analyzer (BuildInsertDelta).
Result<InsertStatement> ParseInsert(const std::string& sql);

// Parses a bulk CSV append:
//
//   COPY sales FROM 'new_batch.csv' (APPEND);
Result<CopyStatement> ParseCopy(const std::string& sql);

// Parses a drop statement:
//
//   DROP TABLE [IF EXISTS] sales;
Result<DropStatement> ParseDrop(const std::string& sql);

// One statement, parsed once: what every surface (PctDatabase, the server's
// QueryExecutor, the shell) decides its lock, its path and its EXPLAIN form
// from.
//
//   statement := [EXPLAIN [ANALYZE]] (select | insert | copy | drop
//                                     | CHECKPOINT [';'])
//              | CREATE TABLE ident AS select
//
// CHECKPOINT takes no operands, and CREATE TABLE AS has no EXPLAIN form.
struct Statement {
  enum class Kind { kSelect, kInsert, kCopy, kDrop, kCheckpoint,
                    kCreateTableAs };
  Kind kind = Kind::kSelect;
  bool explain = false;  // an EXPLAIN prefix
  bool analyze = false;  // EXPLAIN ANALYZE
  // The text the plan's details show: the statement after any EXPLAIN
  // prefix; for CREATE TABLE AS, its SELECT.
  std::string text;
  SelectStatement select;  // kSelect, and the query of kCreateTableAs
  InsertStatement insert;  // kInsert
  CopyStatement copy;      // kCopy
  DropStatement drop;      // kDrop
  std::string table;       // kCreateTableAs: the table it creates
};
Result<Statement> ParseStatement(const std::string& sql);

}  // namespace pctagg

#endif  // PCTAGG_SQL_PARSER_H_
