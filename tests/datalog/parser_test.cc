#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "datalog/lexer.h"
#include "datalog/program.h"

namespace pfql {
namespace datalog {
namespace {

TEST(LexerTest, TokenizesRuleSyntax) {
  auto tokens = Tokenize("c(Y) :- c2(X, Y).");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 13u);  // incl. EOF
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "c");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kVariable);
  EXPECT_EQ((*tokens)[2].text, "Y");
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kColonDash);
  EXPECT_EQ((*tokens).back().kind, TokenKind::kEof);
}

TEST(LexerTest, NumbersIntAndDouble) {
  auto tokens = Tokenize("f(1, -2, 3.5, 0.25).");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].value, Value(1));
  EXPECT_EQ((*tokens)[4].value, Value(-2));
  EXPECT_EQ((*tokens)[6].value, Value(3.5));
  EXPECT_EQ((*tokens)[8].value, Value(0.25));
}

TEST(LexerTest, TrailingPeriodNotConsumedByNumber) {
  auto tokens = Tokenize("f(1).");
  ASSERT_TRUE(tokens.ok());
  // f ( 1 ) . EOF
  ASSERT_EQ(tokens->size(), 6u);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kPeriod);
}

TEST(LexerTest, StringsAndComments) {
  auto tokens = Tokenize("f(\"hello world\"). % comment\n# another\ng('x').");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].value, Value("hello world"));
  bool saw_g = false;
  for (const auto& t : *tokens) {
    if (t.kind == TokenKind::kIdent && t.text == "g") saw_g = true;
  }
  EXPECT_TRUE(saw_g);
}

TEST(LexerTest, ComparisonOperators) {
  auto tokens = Tokenize("X != Y, X == Y, X <= Y, X >= Y, X < Y, X > Y, X = Y");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> ops;
  for (const auto& t : *tokens) {
    switch (t.kind) {
      case TokenKind::kNotEq:
      case TokenKind::kEqEq:
      case TokenKind::kLessEq:
      case TokenKind::kGreaterEq:
      case TokenKind::kLess:
      case TokenKind::kGreater:
        ops.push_back(t.kind);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(ops, (std::vector<TokenKind>{
                     TokenKind::kNotEq, TokenKind::kEqEq, TokenKind::kLessEq,
                     TokenKind::kGreaterEq, TokenKind::kLess,
                     TokenKind::kGreater, TokenKind::kEqEq}));
}

TEST(LexerTest, ErrorsOnGarbage) {
  EXPECT_FALSE(Tokenize("f(&).").ok());
  EXPECT_FALSE(Tokenize("f(\"unterminated).").ok());
  EXPECT_FALSE(Tokenize("f(x) :").ok());
  EXPECT_FALSE(Tokenize("f(!x).").ok());
}

// A literal beyond int64, or a double beyond its range, is a ParseError
// over the literal's span, never an exception escaping the lexer.
TEST(LexerTest, OutOfRangeNumbersAreParseErrors) {
  SourceSpan span;
  auto big = Tokenize("p(1, 99999999999999999999).", &span);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kParseError);
  EXPECT_NE(big.status().message().find(
                "invalid numeric literal '99999999999999999999'"),
            std::string::npos)
      << big.status();
  EXPECT_EQ(span.begin, (SourcePos{1, 6}));
  EXPECT_EQ(span.end, (SourcePos{1, 26}));

  const std::string huge = "p(1" + std::string(400, '0') + ".5).";
  auto overflow = Tokenize(huge);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseProgram("p(99999999999999999999).").status().code(),
            StatusCode::kParseError);

  auto extremes = Tokenize("p(9223372036854775807, -9223372036854775808).");
  ASSERT_TRUE(extremes.ok()) << extremes.status();
  EXPECT_EQ((*extremes)[2].value, Value(INT64_MAX));
  EXPECT_EQ((*extremes)[4].value, Value(INT64_MIN));
}

TEST(ParserTest, ParsesReachabilityExample39) {
  // The paper's Example 3.9 in concrete syntax.
  auto program = ParseProgram(R"(
    c(v).
    c2(<X>, Y) :- c(X), e(X, Y).
    c(Y) :- c2(X, Y).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_EQ(program->rules().size(), 3u);
  const Rule& fact = program->rules()[0];
  EXPECT_TRUE(fact.IsFact());
  EXPECT_EQ(fact.head.predicate, "c");
  const Rule& choose = program->rules()[1];
  EXPECT_EQ(choose.head.predicate, "c2");
  ASSERT_EQ(choose.head.is_key.size(), 2u);
  EXPECT_TRUE(choose.head.is_key[0]);
  EXPECT_FALSE(choose.head.is_key[1]);
  EXPECT_TRUE(choose.head.IsProbabilistic());
  EXPECT_FALSE(program->rules()[2].head.IsProbabilistic());
}

TEST(ParserTest, ParsesWeightAnnotation) {
  auto program = ParseProgram("h(<X>, Y) @P :- r(X, Y, P).");
  ASSERT_TRUE(program.ok()) << program.status();
  const Rule& rule = program->rules()[0];
  ASSERT_TRUE(rule.head.weight_var.has_value());
  EXPECT_EQ(*rule.head.weight_var, "P");
}

TEST(ParserTest, ParsesBuiltins) {
  auto program = ParseProgram("h(X) :- r(X, Y), X != Y, X < 10.");
  ASSERT_TRUE(program.ok()) << program.status();
  const Rule& rule = program->rules()[0];
  ASSERT_EQ(rule.builtins.size(), 2u);
  EXPECT_EQ(rule.builtins[0].op, CmpOp::kNe);
  EXPECT_EQ(rule.builtins[1].op, CmpOp::kLt);
  EXPECT_EQ(rule.builtins[1].rhs.value, Value(10));
}

TEST(ParserTest, ParsesNullaryPredicates) {
  auto program = ParseProgram("q :- v(a, 1), v(b, 0).\nstop :- q.");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->rules()[0].head.terms.size(), 0u);
  EXPECT_EQ(program->rules()[1].body[0].predicate, "q");
}

TEST(ParserTest, ConstantsInBodyAtoms) {
  auto program = ParseProgram("done(yes) :- r(c3).");
  ASSERT_TRUE(program.ok()) << program.status();
  const Rule& rule = program->rules()[0];
  EXPECT_FALSE(rule.head.terms[0].IsVar());
  EXPECT_EQ(rule.head.terms[0].value, Value("yes"));
  EXPECT_EQ(rule.body[0].terms[0].value, Value("c3"));
}

TEST(ParserTest, RejectsMalformedRules) {
  EXPECT_FALSE(ParseProgram("h(X)").ok());           // missing period
  EXPECT_FALSE(ParseProgram("h(X :- r(X).").ok());   // unbalanced paren
  EXPECT_FALSE(ParseProgram("h(<X, Y) :- r(X, Y).").ok());  // unclosed key
  EXPECT_FALSE(ParseProgram(":- r(X).").ok());       // missing head
  EXPECT_FALSE(ParseProgram("h(X) @3 :- r(X).").ok());  // weight not a var
  EXPECT_FALSE(ParseProgram("H(X) :- r(X).").ok());  // upper-case predicate
}

TEST(ProgramTest, RejectsUnsafeRules) {
  // Head variable not bound in the body.
  EXPECT_FALSE(ParseProgram("h(X, Z) :- r(X).").ok());
  // Weight variable unbound.
  EXPECT_FALSE(ParseProgram("h(<X>) @W :- r(X).").ok());
  // Builtin variable unbound.
  EXPECT_FALSE(ParseProgram("h(X) :- r(X), Y < 3.").ok());
  // Non-ground fact.
  EXPECT_FALSE(ParseProgram("h(X).").ok());
}

TEST(ProgramTest, RejectsInconsistentArity) {
  EXPECT_FALSE(ParseProgram("h(X) :- r(X).\nh(X, Y) :- r(X), r(Y).").ok());
  EXPECT_FALSE(ParseProgram("h(X) :- r(X), r(X, X).").ok());
}

TEST(ProgramTest, EdbIdbSplit) {
  auto program = ParseProgram(R"(
    c(v).
    c2(<X>, Y) :- c(X), e(X, Y).
    c(Y) :- c2(X, Y).
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->idb_predicates(), (std::set<std::string>{"c", "c2"}));
  EXPECT_EQ(program->edb_predicates(), (std::set<std::string>{"e"}));
}

TEST(ProgramTest, LinearityCheck) {
  auto linear = ParseProgram("t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).");
  ASSERT_TRUE(linear.ok());
  EXPECT_TRUE(linear->IsLinear());
  auto nonlinear =
      ParseProgram("t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), t(Y, Z).");
  ASSERT_TRUE(nonlinear.ok());
  EXPECT_FALSE(nonlinear->IsLinear());
}

TEST(ProgramTest, ProbabilisticRuleDetection) {
  auto det = ParseProgram("t(X, Y) :- e(X, Y).");
  ASSERT_TRUE(det.ok());
  EXPECT_FALSE(det->HasProbabilisticRules());
  auto prob = ParseProgram("t(<X>, Y) :- e(X, Y).");
  ASSERT_TRUE(prob.ok());
  EXPECT_TRUE(prob->HasProbabilisticRules());
}

TEST(ProgramTest, InitialInstanceChecksEdb) {
  auto program = ParseProgram("c(Y) :- c(X), e(X, Y).\nc(v).");
  ASSERT_TRUE(program.ok());
  Instance edb;
  EXPECT_FALSE(program->InitialInstance(edb).ok());  // e missing
  Relation e(Schema({"i", "j"}));
  e.Insert(Tuple{Value("v"), Value("w")});
  edb.Set("e", std::move(e));
  auto initial = program->InitialInstance(edb);
  ASSERT_TRUE(initial.ok()) << initial.status();
  EXPECT_TRUE(initial->Has("c"));
  EXPECT_TRUE(initial->Find("c")->empty());
  // IDB pre-populated in the input is an error.
  Relation c(Schema({"x"}));
  edb.Set("c", std::move(c));
  EXPECT_FALSE(program->InitialInstance(edb).ok());
}

TEST(ProgramTest, RoundTripToString) {
  const char* text = "c2(<X>, Y) @P :- c(X), e(X, Y, P), X != Y.";
  auto program = ParseProgram(text);
  ASSERT_TRUE(program.ok());
  // Reparse the printed form; structure must survive.
  auto reparsed = ParseProgram(program->ToString());
  ASSERT_TRUE(reparsed.ok()) << program->ToString();
  EXPECT_EQ(reparsed->ToString(), program->ToString());
}

}  // namespace
}  // namespace datalog
}  // namespace pfql
