#include "sql/parser.h"

#include <utility>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace pctagg {

namespace {

// Recursive-descent parser over the token stream. Grammar (informal):
//
//   select    := SELECT term (',' term)* FROM ident [WHERE expr]
//                [GROUP BY gb (',' gb)*] [ORDER BY ident (',' ident)*] [';']
//   term      := agg_call [AS ident] | expr [AS ident]
//   agg_call  := func '(' ['DISTINCT'] ('*' | expr) [BY ident_list]
//                [DEFAULT number] ')' [OVER '(' PARTITION BY ident_list ')']
//   expr      := or_expr
//   or_expr   := and_expr (OR and_expr)*
//   and_expr  := not_expr (AND not_expr)*
//   not_expr  := NOT not_expr | cmp_expr
//   cmp_expr  := add_expr [cmp_op add_expr] | add_expr IS [NOT] NULL
//   add_expr  := mul_expr (('+'|'-') mul_expr)*
//   mul_expr  := unary (('*'|'/') unary)*
//   unary     := '-' unary | primary
//   primary   := literal | ident | '(' expr ')' | CASE ... END
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> Parse() {
    SelectStatement stmt;
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    while (true) {
      PCTAGG_ASSIGN_OR_RETURN(SelectTerm term, ParseTerm());
      stmt.terms.push_back(std::move(term));
      if (!ConsumeSymbol(",")) break;
    }
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    PCTAGG_ASSIGN_OR_RETURN(stmt.from_table, ExpectIdentifier());
    if (ConsumeKeyword("WHERE")) {
      PCTAGG_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      PCTAGG_RETURN_IF_ERROR(ExpectKeyword("BY"));
      stmt.has_group_by = true;
      if (Peek().IsKeyword("CUBE") || Peek().IsKeyword("ROLLUP")) {
        stmt.grouping_kind = Peek().IsKeyword("CUBE")
                                 ? SelectStatement::GroupingSetsKind::kCube
                                 : SelectStatement::GroupingSetsKind::kRollup;
        Advance();
        PCTAGG_RETURN_IF_ERROR(ExpectSymbol("("));
        while (true) {
          PCTAGG_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
          stmt.grouping_columns.push_back(std::move(name));
          if (!ConsumeSymbol(",")) break;
        }
        PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
        if (ConsumeSymbol(",")) {
          return Status::ParseError(
              "CUBE/ROLLUP cannot be mixed with other GROUP BY entries");
        }
      } else if (Peek().IsKeyword("GROUPING")) {
        Advance();
        PCTAGG_RETURN_IF_ERROR(ExpectKeyword("SETS"));
        stmt.grouping_kind = SelectStatement::GroupingSetsKind::kSets;
        PCTAGG_RETURN_IF_ERROR(ExpectSymbol("("));
        while (true) {
          PCTAGG_RETURN_IF_ERROR(ExpectSymbol("("));
          std::vector<std::string> set;
          if (!Peek().IsSymbol(")")) {
            while (true) {
              PCTAGG_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
              set.push_back(std::move(name));
              if (!ConsumeSymbol(",")) break;
            }
          }
          PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
          stmt.grouping_sets.push_back(std::move(set));
          if (!ConsumeSymbol(",")) break;
        }
        PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else {
        while (true) {
          const Token& t = Peek();
          if (t.type == TokenType::kIdentifier) {
            stmt.group_by.push_back(t.text);
            Advance();
          } else if (t.type == TokenType::kInteger) {
            stmt.group_by.push_back(t.text);  // positional reference
            Advance();
          } else if (t.IsKeyword("CUBE") || t.IsKeyword("ROLLUP") ||
                     t.IsKeyword("GROUPING")) {
            return Status::ParseError(
                "CUBE/ROLLUP/GROUPING SETS cannot be mixed with other GROUP "
                "BY entries");
          } else {
            return Status::ParseError("expected column name in GROUP BY");
          }
          if (!ConsumeSymbol(",")) break;
        }
      }
    }
    if (ConsumeKeyword("HAVING")) {
      if (!stmt.has_group_by) {
        return Status::ParseError("HAVING requires a GROUP BY clause");
      }
      PCTAGG_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (ConsumeKeyword("ORDER")) {
      PCTAGG_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        PCTAGG_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
        if (ConsumeKeyword("DESC")) {
          item.descending = true;
        } else {
          ConsumeKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      const Token& t = Peek();
      if (t.type != TokenType::kInteger) {
        return Status::ParseError("LIMIT requires an integer literal");
      }
      stmt.has_limit = true;
      stmt.limit = static_cast<size_t>(std::stoll(t.text));
      Advance();
    }
    PCTAGG_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  Result<InsertStatement> ParseInsertStatement() {
    InsertStatement stmt;
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    PCTAGG_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    if (ConsumeSymbol("(")) {
      while (true) {
        PCTAGG_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
        stmt.columns.push_back(std::move(name));
        if (!ConsumeSymbol(",")) break;
      }
      PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      PCTAGG_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<Value> row;
      while (true) {
        PCTAGG_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        row.push_back(std::move(v));
        if (!ConsumeSymbol(",")) break;
      }
      PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (!stmt.columns.empty() && row.size() != stmt.columns.size()) {
        return Status::ParseError(StrFormat(
            "VALUES row has %zu literals but %zu columns were named",
            row.size(), stmt.columns.size()));
      }
      if (!stmt.rows.empty() && row.size() != stmt.rows.front().size()) {
        return Status::ParseError("VALUES rows differ in arity");
      }
      stmt.rows.push_back(std::move(row));
      if (!ConsumeSymbol(",")) break;
    }
    PCTAGG_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  Result<DropStatement> ParseDropStatement() {
    DropStatement stmt;
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("DROP"));
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    if (ConsumeKeyword("IF")) {
      PCTAGG_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      stmt.if_exists = true;
    }
    PCTAGG_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    PCTAGG_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  Result<CopyStatement> ParseCopyStatement() {
    CopyStatement stmt;
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("COPY"));
    PCTAGG_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    if (Peek().type != TokenType::kString) {
      return Status::ParseError("COPY requires a quoted file path");
    }
    stmt.path = Peek().text;
    Advance();
    if (ConsumeSymbol("(")) {
      PCTAGG_RETURN_IF_ERROR(ExpectKeyword("APPEND"));
      stmt.append = true;
      PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    if (!stmt.append) {
      return Status::ParseError(
          "COPY requires the (APPEND) option: only additive loads are "
          "supported");
    }
    PCTAGG_RETURN_IF_ERROR(ExpectEnd());
    return stmt;
  }

  // `sql` is the text the tokens came from, for Statement::text.
  Result<Statement> ParseStatement(const std::string& sql) {
    Statement out;
    if (ConsumeKeyword("EXPLAIN")) {
      out.explain = true;
      out.analyze = ConsumeKeyword("ANALYZE");
      if (Peek().type == TokenType::kEnd) {
        return Status::ParseError("EXPLAIN requires a statement to explain");
      }
    }
    out.text = out.explain ? sql.substr(Peek().position) : sql;
    const Token& first = Peek();
    if (first.IsKeyword("INSERT")) {
      out.kind = Statement::Kind::kInsert;
      PCTAGG_ASSIGN_OR_RETURN(out.insert, ParseInsertStatement());
    } else if (first.IsKeyword("COPY")) {
      out.kind = Statement::Kind::kCopy;
      PCTAGG_ASSIGN_OR_RETURN(out.copy, ParseCopyStatement());
    } else if (first.IsKeyword("DROP")) {
      out.kind = Statement::Kind::kDrop;
      PCTAGG_ASSIGN_OR_RETURN(out.drop, ParseDropStatement());
    } else if (ConsumeKeyword("CHECKPOINT")) {
      out.kind = Statement::Kind::kCheckpoint;
      PCTAGG_RETURN_IF_ERROR(ExpectEnd());
    } else if (first.type == TokenType::kIdentifier &&
               EqualsIgnoreCase(first.text, "CREATE")) {
      if (out.explain) {
        return Status::ParseError("EXPLAIN does not apply to CREATE TABLE AS");
      }
      Advance();
      out.kind = Statement::Kind::kCreateTableAs;
      PCTAGG_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
      PCTAGG_ASSIGN_OR_RETURN(out.table, ExpectIdentifier());
      PCTAGG_RETURN_IF_ERROR(ExpectKeyword("AS"));
      out.text = sql.substr(Peek().position);
      PCTAGG_ASSIGN_OR_RETURN(out.select, Parse());
    } else {
      PCTAGG_ASSIGN_OR_RETURN(out.select, Parse());
    }
    return out;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool ConsumeKeyword(const std::string& kw) {
    if (Peek().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(const std::string& s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!ConsumeKeyword(kw)) {
      return Status::ParseError("expected " + kw + " near '" + Peek().text +
                                "'");
    }
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& s) {
    if (!ConsumeSymbol(s)) {
      return Status::ParseError("expected '" + s + "' near '" + Peek().text +
                                "'");
    }
    return Status::OK();
  }
  // The end of a statement: an optional ';', then nothing.
  Status ExpectEnd() {
    ConsumeSymbol(";");
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError("unexpected trailing input near '" +
                                Peek().text + "'");
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError("expected identifier near '" + Peek().text +
                                "'");
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  // One VALUES literal: [-] integer | [-] float | 'string' | NULL.
  Result<Value> ParseLiteral() {
    if (ConsumeKeyword("NULL")) return Value::Null();
    bool negate = ConsumeSymbol("-");
    const Token& t = Peek();
    if (t.type == TokenType::kInteger) {
      int64_t v = std::stoll(t.text);
      Advance();
      return Value::Int64(negate ? -v : v);
    }
    if (t.type == TokenType::kFloat) {
      double v = std::stod(t.text);
      Advance();
      return Value::Float64(negate ? -v : v);
    }
    if (!negate && t.type == TokenType::kString) {
      std::string v = t.text;
      Advance();
      return Value::String(std::move(v));
    }
    return Status::ParseError("expected literal near '" + t.text + "'");
  }

  // Returns the aggregate kind for a function-call identifier, or kScalar.
  static TermFunc FuncFromName(const std::string& name) {
    std::string lower = ToLower(name);
    if (lower == "sum") return TermFunc::kSum;
    if (lower == "count") return TermFunc::kCount;
    if (lower == "avg" || lower == "average") return TermFunc::kAvg;
    if (lower == "min") return TermFunc::kMin;
    if (lower == "max") return TermFunc::kMax;
    if (lower == "vpct") return TermFunc::kVpct;
    if (lower == "hpct") return TermFunc::kHpct;
    return TermFunc::kScalar;
  }

  Result<SelectTerm> ParseTerm() {
    SelectTerm term;
    // GROUPING(col): GROUPING is a keyword (for GROUPING SETS), so it never
    // reaches the identifier-call branch below.
    if (Peek().IsKeyword("GROUPING") && Peek(1).IsSymbol("(")) {
      term.func = TermFunc::kGrouping;
      Advance();  // GROUPING
      Advance();  // (
      PCTAGG_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      term.argument = Col(std::move(name));
      PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (ConsumeKeyword("AS")) {
        PCTAGG_ASSIGN_OR_RETURN(term.alias, ExpectIdentifier());
      }
      return term;
    }
    // Aggregate call: IDENT '(' with a recognized function name.
    if (Peek().type == TokenType::kIdentifier && Peek(1).IsSymbol("(") &&
        FuncFromName(Peek().text) != TermFunc::kScalar) {
      term.func = FuncFromName(Peek().text);
      Advance();  // name
      Advance();  // (
      if (ConsumeKeyword("DISTINCT")) term.distinct = true;
      if (Peek().IsSymbol("*")) {
        if (term.func != TermFunc::kCount) {
          return Status::ParseError("'*' argument is only valid in count(*)");
        }
        term.func = TermFunc::kCountStar;
        Advance();
      } else {
        PCTAGG_ASSIGN_OR_RETURN(term.argument, ParseExpr());
      }
      if (ConsumeKeyword("BY")) {
        term.has_by = true;
        while (true) {
          PCTAGG_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
          term.by_columns.push_back(std::move(name));
          if (!ConsumeSymbol(",")) break;
        }
      }
      if (ConsumeKeyword("DEFAULT")) {
        term.has_default = true;
        const Token& t = Peek();
        if (t.type != TokenType::kInteger && t.type != TokenType::kFloat) {
          return Status::ParseError("DEFAULT requires a numeric literal");
        }
        term.default_value = std::stod(t.text);
        Advance();
      }
      PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (ConsumeKeyword("OVER")) {
        term.has_over = true;
        PCTAGG_RETURN_IF_ERROR(ExpectSymbol("("));
        if (ConsumeKeyword("PARTITION")) {
          PCTAGG_RETURN_IF_ERROR(ExpectKeyword("BY"));
          while (true) {
            PCTAGG_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
            term.partition_by.push_back(std::move(name));
            if (!ConsumeSymbol(",")) break;
          }
        }
        PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
    } else {
      PCTAGG_ASSIGN_OR_RETURN(term.argument, ParseExpr());
    }
    if (ConsumeKeyword("AS")) {
      PCTAGG_ASSIGN_OR_RETURN(term.alias, ExpectIdentifier());
    }
    return term;
  }

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    PCTAGG_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (ConsumeKeyword("OR")) {
      PCTAGG_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    PCTAGG_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (ConsumeKeyword("AND")) {
      PCTAGG_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      PCTAGG_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Not(std::move(e));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    PCTAGG_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    const Token& t = Peek();
    if (t.IsKeyword("IS")) {
      Advance();
      bool negated = ConsumeKeyword("NOT");
      PCTAGG_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      ExprPtr e = IsNull(std::move(left));
      return negated ? Not(std::move(e)) : e;
    }
    if (t.type == TokenType::kSymbol &&
        (t.text == "=" || t.text == "<>" || t.text == "<" || t.text == "<=" ||
         t.text == ">" || t.text == ">=")) {
      std::string op = t.text;
      Advance();
      PCTAGG_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      if (op == "=") return Eq(std::move(left), std::move(right));
      if (op == "<>") return Ne(std::move(left), std::move(right));
      if (op == "<") return Lt(std::move(left), std::move(right));
      if (op == "<=") return Le(std::move(left), std::move(right));
      if (op == ">") return Gt(std::move(left), std::move(right));
      return Ge(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    PCTAGG_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      if (ConsumeSymbol("+")) {
        PCTAGG_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = Add(std::move(left), std::move(right));
      } else if (ConsumeSymbol("-")) {
        PCTAGG_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = Sub(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    PCTAGG_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      if (ConsumeSymbol("*")) {
        PCTAGG_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Mul(std::move(left), std::move(right));
      } else if (ConsumeSymbol("/")) {
        PCTAGG_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Div(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (ConsumeSymbol("-")) {
      PCTAGG_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
      return Sub(Lit(Value::Int64(0)), std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger: {
        int64_t v = std::stoll(t.text);
        Advance();
        return Lit(Value::Int64(v));
      }
      case TokenType::kFloat: {
        double v = std::stod(t.text);
        Advance();
        return Lit(Value::Float64(v));
      }
      case TokenType::kString: {
        std::string s = t.text;
        Advance();
        return Lit(Value::String(std::move(s)));
      }
      case TokenType::kIdentifier: {
        std::string name = t.text;
        Advance();
        if (Peek().IsSymbol("(")) {
          std::string lower = ToLower(name);
          if (lower == "coalesce" || lower == "abs" || lower == "round") {
            return ParseScalarFunction(lower);
          }
          return Status::ParseError(
              "aggregate call '" + name +
              "' is only allowed as a top-level SELECT term");
        }
        return Col(std::move(name));
      }
      case TokenType::kKeyword:
        if (t.IsKeyword("NULL")) {
          Advance();
          return NullLit(DataType::kFloat64);
        }
        if (t.IsKeyword("CASE")) return ParseCase();
        return Status::ParseError("unexpected keyword '" + t.text + "'");
      case TokenType::kSymbol:
        if (t.IsSymbol("(")) {
          Advance();
          PCTAGG_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
          return e;
        }
        return Status::ParseError("unexpected symbol '" + t.text + "'");
      case TokenType::kEnd:
        return Status::ParseError("unexpected end of input");
    }
    return Status::ParseError("unexpected token");
  }

  // COALESCE(a, b, ...), ABS(x), ROUND(x [, digits]); the name has already
  // been consumed and '(' is the current token.
  Result<ExprPtr> ParseScalarFunction(const std::string& lower_name) {
    PCTAGG_RETURN_IF_ERROR(ExpectSymbol("("));
    std::vector<ExprPtr> args;
    if (!Peek().IsSymbol(")")) {
      while (true) {
        PCTAGG_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        args.push_back(std::move(arg));
        if (!ConsumeSymbol(",")) break;
      }
    }
    PCTAGG_RETURN_IF_ERROR(ExpectSymbol(")"));
    if (lower_name == "coalesce") {
      if (args.empty()) {
        return Status::ParseError("COALESCE requires at least one argument");
      }
      return Coalesce(std::move(args));
    }
    if (lower_name == "abs") {
      if (args.size() != 1) {
        return Status::ParseError("ABS takes exactly one argument");
      }
      return Abs(std::move(args[0]));
    }
    // round
    if (args.empty() || args.size() > 2) {
      return Status::ParseError("ROUND takes one or two arguments");
    }
    int digits = 0;
    if (args.size() == 2) {
      // The digit count must be an integer literal; detect via rendering.
      std::string rendered = args[1]->ToString();
      if (!IsInteger(rendered)) {
        return Status::ParseError("ROUND digits must be an integer literal");
      }
      digits = static_cast<int>(std::stol(rendered));
    }
    return Round(std::move(args[0]), digits);
  }

  Result<ExprPtr> ParseCase() {
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("CASE"));
    std::vector<std::pair<ExprPtr, ExprPtr>> branches;
    while (ConsumeKeyword("WHEN")) {
      PCTAGG_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      PCTAGG_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      PCTAGG_ASSIGN_OR_RETURN(ExprPtr result, ParseExpr());
      branches.emplace_back(std::move(cond), std::move(result));
    }
    if (branches.empty()) {
      return Status::ParseError("CASE requires at least one WHEN branch");
    }
    ExprPtr else_expr;
    if (ConsumeKeyword("ELSE")) {
      PCTAGG_ASSIGN_OR_RETURN(else_expr, ParseExpr());
    }
    PCTAGG_RETURN_IF_ERROR(ExpectKeyword("END"));
    return CaseWhen(std::move(branches), std::move(else_expr));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStatement> ParseSelect(const std::string& sql) {
  PCTAGG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

Result<InsertStatement> ParseInsert(const std::string& sql) {
  PCTAGG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseInsertStatement();
}

Result<CopyStatement> ParseCopy(const std::string& sql) {
  PCTAGG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseCopyStatement();
}

Result<DropStatement> ParseDrop(const std::string& sql) {
  PCTAGG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseDropStatement();
}

Result<Statement> ParseStatement(const std::string& sql) {
  PCTAGG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement(sql);
}

}  // namespace pctagg
