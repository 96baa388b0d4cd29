// Unit tests for the SQL front-end: lexer, parser (the extended Vpct/Hpct/BY
// syntax) and parse-level error reporting.

#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"

namespace pctagg {
namespace {

TEST(LexerTest, TokenizesKeywordsIdentifiersNumbers) {
  std::vector<Token> toks =
      Tokenize("SELECT d1, sum(a) FROM f WHERE a >= 1.5").value();
  ASSERT_GE(toks.size(), 12u);
  EXPECT_TRUE(toks[0].IsKeyword("SELECT"));
  EXPECT_EQ(toks[1].type, TokenType::kIdentifier);
  EXPECT_EQ(toks[1].text, "d1");
  EXPECT_TRUE(toks[2].IsSymbol(","));
  EXPECT_EQ(toks.back().type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  std::vector<Token> toks = Tokenize("select FrOm group BY").value();
  EXPECT_TRUE(toks[0].IsKeyword("SELECT"));
  EXPECT_TRUE(toks[1].IsKeyword("FROM"));
  EXPECT_TRUE(toks[2].IsKeyword("GROUP"));
  EXPECT_TRUE(toks[3].IsKeyword("BY"));
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  std::vector<Token> toks = Tokenize("'it''s'").value();
  EXPECT_EQ(toks[0].type, TokenType::kString);
  EXPECT_EQ(toks[0].text, "it's");
}

TEST(LexerTest, TwoCharOperators) {
  std::vector<Token> toks = Tokenize("a <= b <> c != d >= e").value();
  EXPECT_TRUE(toks[1].IsSymbol("<="));
  EXPECT_TRUE(toks[3].IsSymbol("<>"));
  EXPECT_TRUE(toks[5].IsSymbol("<>"));  // != normalizes to <>
  EXPECT_TRUE(toks[7].IsSymbol(">="));
}

TEST(LexerTest, Errors) {
  EXPECT_EQ(Tokenize("'unterminated").status().code(), StatusCode::kParseError);
  EXPECT_EQ(Tokenize("a @ b").status().code(), StatusCode::kParseError);
}

TEST(ParserTest, PaperVpctQuery) {
  SelectStatement stmt =
      ParseSelect("SELECT state, city, Vpct(salesAmt BY city) "
                  "FROM sales GROUP BY state, city;")
          .value();
  ASSERT_EQ(stmt.terms.size(), 3u);
  EXPECT_EQ(stmt.terms[0].func, TermFunc::kScalar);
  EXPECT_EQ(stmt.terms[2].func, TermFunc::kVpct);
  EXPECT_TRUE(stmt.terms[2].has_by);
  ASSERT_EQ(stmt.terms[2].by_columns.size(), 1u);
  EXPECT_EQ(stmt.terms[2].by_columns[0], "city");
  EXPECT_EQ(stmt.from_table, "sales");
  ASSERT_TRUE(stmt.has_group_by);
  EXPECT_EQ(stmt.group_by, (std::vector<std::string>{"state", "city"}));
}

TEST(ParserTest, PaperHpctQueryWithExtraAggregate) {
  SelectStatement stmt =
      ParseSelect("SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) "
                  "FROM sales GROUP BY store")
          .value();
  ASSERT_EQ(stmt.terms.size(), 3u);
  EXPECT_EQ(stmt.terms[1].func, TermFunc::kHpct);
  EXPECT_EQ(stmt.terms[2].func, TermFunc::kSum);
  EXPECT_FALSE(stmt.terms[2].has_by);
}

TEST(ParserTest, DmkdHorizontalAggregations) {
  SelectStatement stmt =
      ParseSelect("SELECT storeId, sum(salesAmt BY dayofweekNo), "
                  "count(distinct transactionid BY dayofweekNo), "
                  "max(1 BY deptId DEFAULT 0) "
                  "FROM transactionLine GROUP BY storeId")
          .value();
  ASSERT_EQ(stmt.terms.size(), 4u);
  EXPECT_EQ(stmt.terms[1].func, TermFunc::kSum);
  EXPECT_TRUE(stmt.terms[1].has_by);
  EXPECT_TRUE(stmt.terms[2].distinct);
  EXPECT_TRUE(stmt.terms[3].has_default);
  EXPECT_DOUBLE_EQ(stmt.terms[3].default_value, 0.0);
}

TEST(ParserTest, CountStarAndPositionalGroupBy) {
  SelectStatement stmt =
      ParseSelect("SELECT departmentId, gender, count(*) "
                  "FROM employee GROUP BY 1, 2")
          .value();
  EXPECT_EQ(stmt.terms[2].func, TermFunc::kCountStar);
  EXPECT_EQ(stmt.group_by, (std::vector<std::string>{"1", "2"}));
}

TEST(ParserTest, WindowOverPartitionBy) {
  SelectStatement stmt =
      ParseSelect("SELECT d1, sum(a) OVER (PARTITION BY d1, d2) FROM f")
          .value();
  ASSERT_EQ(stmt.terms.size(), 2u);
  EXPECT_TRUE(stmt.terms[1].has_over);
  EXPECT_EQ(stmt.terms[1].partition_by,
            (std::vector<std::string>{"d1", "d2"}));
}

TEST(ParserTest, WhereOrderByAliases) {
  SelectStatement stmt =
      ParseSelect("SELECT d AS dim, sum(a) AS total FROM f "
                  "WHERE a > 0 AND d <> 3 GROUP BY d ORDER BY d")
          .value();
  EXPECT_EQ(stmt.terms[0].alias, "dim");
  EXPECT_EQ(stmt.terms[1].alias, "total");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.order_by, (std::vector<OrderItem>{{"d", false}}));
}

TEST(ParserTest, ArithmeticPrecedence) {
  SelectStatement stmt = ParseSelect("SELECT a + b * 2 FROM f").value();
  EXPECT_EQ(stmt.terms[0].argument->ToString(), "(a + (b * 2))");
}

TEST(ParserTest, ParenthesesAndUnaryMinus) {
  SelectStatement stmt = ParseSelect("SELECT (a + b) * -2 FROM f").value();
  EXPECT_EQ(stmt.terms[0].argument->ToString(), "((a + b) * (0 - 2))");
}

TEST(ParserTest, CaseWhenExpression) {
  SelectStatement stmt =
      ParseSelect("SELECT CASE WHEN d = 1 THEN a ELSE 0 END FROM f").value();
  EXPECT_EQ(stmt.terms[0].argument->ToString(),
            "CASE WHEN d = 1 THEN a ELSE 0 END");
}

TEST(ParserTest, IsNullPredicates) {
  SelectStatement stmt =
      ParseSelect("SELECT a FROM f WHERE a IS NOT NULL OR d IS NULL").value();
  EXPECT_NE(stmt.where->ToString().find("IS NULL"), std::string::npos);
}

TEST(ParserTest, StatementRoundTripsThroughToString) {
  std::string sql =
      "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) "
      "FROM sales GROUP BY store;";
  SelectStatement stmt = ParseSelect(sql).value();
  SelectStatement again = ParseSelect(stmt.ToString()).value();
  EXPECT_EQ(stmt.ToString(), again.ToString());
}

TEST(ParserTest, Errors) {
  EXPECT_EQ(ParseSelect("SELECT FROM f").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT a").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT a FROM f GROUP d").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT sum(a FROM f").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseSelect("SELECT a FROM f extra junk").status().code(),
            StatusCode::kParseError);
  // '*' only in count().
  EXPECT_EQ(ParseSelect("SELECT sum(*) FROM f").status().code(),
            StatusCode::kParseError);
  // Aggregates cannot nest inside scalar expressions.
  EXPECT_EQ(ParseSelect("SELECT 1 + sum(a) FROM f").status().code(),
            StatusCode::kParseError);
  // DEFAULT requires a number.
  EXPECT_EQ(ParseSelect("SELECT max(1 BY d DEFAULT x) FROM f").status().code(),
            StatusCode::kParseError);
  // CASE without WHEN.
  EXPECT_EQ(ParseSelect("SELECT CASE END FROM f").status().code(),
            StatusCode::kParseError);
}

// ParseStatement reads the EXPLAIN prefix and the statement kind every
// surface dispatches on, the text the plan shows and a CREATE TABLE AS's
// target; malformed statements are ParseErrors.
TEST(StatementTest, ParsesEveryKind) {
  using Kind = Statement::Kind;
  struct Case {
    std::string sql;
    Kind kind;
    bool explain;
    bool analyze;
    std::string text;   // Statement::text
    std::string table;  // CREATE TABLE AS's target
  };
  const Case cases[] = {
      {"SELECT a FROM f", Kind::kSelect, false, false, "SELECT a FROM f",
       ""},
      {"EXPLAIN SELECT a FROM f", Kind::kSelect, true, false,
       "SELECT a FROM f", ""},
      {"explain analyze SELECT a FROM f", Kind::kSelect, true, true,
       "SELECT a FROM f", ""},
      {"SELECT d1 FROM f;", Kind::kSelect, false, false,
       "SELECT d1 FROM f;", ""},
      {"INSERT INTO f VALUES (1)", Kind::kInsert, false, false,
       "INSERT INTO f VALUES (1)", ""},
      {"INSERT INTO f VALUES (1);", Kind::kInsert, false, false,
       "INSERT INTO f VALUES (1);", ""},
      {"EXPLAIN ANALYZE INSERT INTO f VALUES (1)", Kind::kInsert, true,
       true, "INSERT INTO f VALUES (1)", ""},
      {"copy f from 'x' (append)", Kind::kCopy, false, false,
       "copy f from 'x' (append)", ""},
      {"DROP TABLE f", Kind::kDrop, false, false, "DROP TABLE f", ""},
      {"DROP TABLE f;", Kind::kDrop, false, false, "DROP TABLE f;", ""},
      {"EXPLAIN DROP TABLE f", Kind::kDrop, true, false, "DROP TABLE f",
       ""},
      {"CHECKPOINT", Kind::kCheckpoint, false, false, "CHECKPOINT", ""},
      {"CHECKPOINT;", Kind::kCheckpoint, false, false, "CHECKPOINT;",
       ""},
      {"checkpoint", Kind::kCheckpoint, false, false, "checkpoint", ""},
      {"CREATE TABLE t2 AS SELECT d1 FROM f", Kind::kCreateTableAs,
       false, false, "SELECT d1 FROM f", "t2"},
      {"create table x as select d1 from f", Kind::kCreateTableAs, false,
       false, "select d1 from f", "x"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    Result<Statement> stmt = ParseStatement(c.sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    EXPECT_EQ(stmt->kind, c.kind);
    EXPECT_EQ(stmt->explain, c.explain);
    EXPECT_EQ(stmt->analyze, c.analyze);
    EXPECT_EQ(stmt->text, c.text);
    EXPECT_EQ(stmt->table, c.table);
  }
  const char* const malformed[] = {
      "EXPLAIN",
      "EXPLAIN ANALYZE",
      "CREATE TABLE t2",
      "CREATE TABLE t2 AS INSERT INTO f VALUES (1)",
      "EXPLAIN CREATE TABLE t2 AS SELECT d1 FROM f",
      "CHECKPOINT now please",
      "EXPLAIN CHECKPOINT garbage",
      "DROP TABLE a b",
  };
  for (const char* sql : malformed) {
    EXPECT_EQ(ParseStatement(sql).status().code(), StatusCode::kParseError)
        << sql;
  }
}

}  // namespace
}  // namespace pctagg
