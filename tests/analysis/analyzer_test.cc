#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datalog/program.h"

namespace pfql {
namespace analysis {
namespace {

std::vector<std::string> CodesOf(const DiagnosticSink& sink) {
  std::vector<std::string> codes;
  for (const auto& d : sink.diagnostics()) codes.push_back(d.code);
  return codes;
}

bool Has(const std::vector<std::string>& codes, const char* code) {
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

std::vector<std::string> LintCodes(std::string_view source,
                                   AnalyzerOptions options = {}) {
  return CodesOf(LintProgramSource(source, options).sink);
}

constexpr char kReach[] = R"(
start(1).
reach(X) :- start(X).
reach(Y) :- reach(X), e(X, Y).
)";

TEST(DependencyGraphTest, EdgesAndSccs) {
  auto parsed = datalog::ParseProgram(kReach);
  ASSERT_TRUE(parsed.ok());
  DependencyGraph graph = BuildDependencyGraph(*parsed);

  ASSERT_EQ(graph.edges.count("reach"), 1u);
  EXPECT_EQ(graph.edges.at("reach"),
            (std::set<std::string>{"start", "reach", "e"}));
  // Body-only predicates are nodes too.
  EXPECT_EQ(graph.edges.count("e"), 1u);

  EXPECT_TRUE(graph.IsRecursive("reach"));
  EXPECT_FALSE(graph.IsRecursive("start"));
  EXPECT_FALSE(graph.IsRecursive("e"));
  EXPECT_FALSE(graph.IsRecursive("absent"));

  // Reverse topological order: callees before callers.
  EXPECT_LT(graph.scc_index.at("e"), graph.scc_index.at("reach"));
  EXPECT_LT(graph.scc_index.at("start"), graph.scc_index.at("reach"));

  EXPECT_EQ(graph.ContributorsTo("reach"),
            (std::set<std::string>{"reach", "start", "e"}));
  EXPECT_EQ(graph.ContributorsTo("start"),
            (std::set<std::string>{"start"}));
}

TEST(DependencyGraphTest, MutualRecursionFormsOneScc) {
  auto parsed = datalog::ParseProgram(R"(
even(0).
even(Y) :- odd(X), s(X, Y).
odd(Y) :- even(X), s(X, Y).
)");
  ASSERT_TRUE(parsed.ok());
  DependencyGraph graph = BuildDependencyGraph(*parsed);
  EXPECT_EQ(graph.scc_index.at("even"), graph.scc_index.at("odd"));
  EXPECT_TRUE(graph.IsRecursive("even"));
  EXPECT_TRUE(graph.IsRecursive("odd"));
  const auto& scc = graph.sccs[graph.scc_index.at("even")];
  EXPECT_EQ(scc, (std::vector<std::string>{"even", "odd"}));
}

// ---- Repair-key well-formedness ----------------------------------------

TEST(RepairKeyPassTest, ExplicitAllKeyMarkersAreAnError) {
  auto codes = LintCodes("h(<X>) :- r(X).\nr(1).\n");
  EXPECT_TRUE(Has(codes, kCodeKeysNotProperSubset));
}

TEST(RepairKeyPassTest, ClassicalRuleIsNotFlagged) {
  // No markers, no weight: the parser keys every position, but that is the
  // classical-datalog convention, not an explicit all-key head.
  auto codes = LintCodes("h(X) :- r(X).\nr(1).\n");
  EXPECT_FALSE(Has(codes, kCodeKeysNotProperSubset));
  EXPECT_FALSE(Has(codes, kCodeWeightedDeterministic));
}

TEST(RepairKeyPassTest, WeightWithoutChoiceWarns) {
  // All head positions are constants: the @W weight can never matter.
  auto codes = LintCodes("h(1) @W :- r(W).\nr(2).\n");
  EXPECT_TRUE(Has(codes, kCodeWeightedDeterministic));
}

TEST(RepairKeyPassTest, WeightVariableInKeyPositionIsAnError) {
  auto codes = LintCodes("h(<W>, X) @W :- r(W, X).\nr(1, 2).\n");
  EXPECT_TRUE(Has(codes, kCodeWeightInKey));
}

TEST(RepairKeyPassTest, ConflictingKeyMasksAreAnError) {
  auto codes = LintCodes(R"(
h(<X>, Y) :- r(X, Y).
h(X, <Y>) :- s(X, Y).
r(1, 2).
s(1, 2).
)");
  EXPECT_TRUE(Has(codes, kCodeKeyMaskConflict));
  EXPECT_FALSE(Has(codes, kCodeOverlappingKeyGroups));
}

TEST(RepairKeyPassTest, AgreeingProbabilisticRulesOverlapWarning) {
  auto codes = LintCodes(R"(
h(<X>, Y) :- r(X, Y).
h(<X>, Y) :- s(X, Y).
r(1, 2).
s(1, 2).
)");
  EXPECT_TRUE(Has(codes, kCodeOverlappingKeyGroups));
  EXPECT_FALSE(Has(codes, kCodeKeyMaskConflict));
}

TEST(RepairKeyPassTest, MixedProbabilisticAndDeterministicWarns) {
  auto codes = LintCodes(R"(
h(<X>, Y) :- r(X, Y).
h(X, Y) :- s(X, Y).
r(1, 2).
s(1, 2).
)");
  EXPECT_TRUE(Has(codes, kCodeMixedRuleKinds));
}

// ---- Recursion / termination notes -------------------------------------

TEST(RecursionPassTest, RecursiveSccAndProbabilisticRecursionNotes) {
  auto result = LintProgramSource(R"(
cur(0).
c2(<X>, Y) @P :- cur(X), e(X, Y, P).
cur(Y) :- c2(X, Y).
e(0, 1, 1).
)");
  auto codes = CodesOf(result.sink);
  EXPECT_TRUE(Has(codes, kCodeRecursiveScc));
  EXPECT_TRUE(Has(codes, kCodeProbabilisticRecursion));
  ASSERT_TRUE(result.program.has_value());
}

TEST(RecursionPassTest, NotesSuppressedWhenDisabled) {
  AnalyzerOptions options;
  options.emit_notes = false;
  auto result = LintProgramSource(kReach, options);
  for (const auto& d : result.sink.diagnostics()) {
    EXPECT_NE(d.severity, Severity::kNote) << d.ToString();
  }
}

TEST(TerminationPassTest, LinearAndNonProbabilisticNotes) {
  auto codes = LintCodes(kReach);
  EXPECT_TRUE(Has(codes, kCodeLinearFragment));
  EXPECT_TRUE(Has(codes, kCodeNoProbabilisticRules));
  EXPECT_TRUE(Has(codes, kCodeBoundedStateSpace));
  EXPECT_FALSE(Has(codes, kCodeNonLinearRule));
}

TEST(TerminationPassTest, NonLinearRuleNoteNamesTheRule) {
  auto result = LintProgramSource(R"(
t(X, Y) :- e(X, Y).
t(X, Z) :- t(X, Y), t(Y, Z).
e(1, 2).
)");
  auto codes = CodesOf(result.sink);
  EXPECT_TRUE(Has(codes, kCodeNonLinearRule));
  EXPECT_FALSE(Has(codes, kCodeLinearFragment));
  for (const auto& d : result.sink.diagnostics()) {
    if (d.code == kCodeNonLinearRule) {
      EXPECT_NE(d.message.find("rule #2"), std::string::npos) << d.message;
    }
  }
}

TEST(ProgramAnalysisTest, SummaryFacts) {
  auto parsed = datalog::ParseProgram(kReach);
  ASSERT_TRUE(parsed.ok());
  DiagnosticSink sink;
  ProgramAnalysis analysis = AnalyzeProgram(*parsed, {}, &sink);
  EXPECT_TRUE(analysis.linear);
  EXPECT_FALSE(analysis.has_probabilistic_rules);
  EXPECT_EQ(analysis.recursive_predicates,
            (std::set<std::string>{"reach"}));
}

// ---- Dead code ----------------------------------------------------------

TEST(DeadCodePassTest, UnsatisfiableBuiltinsNeverFire) {
  // An int and a double compare numerically, as the engine compares them.
  auto codes = LintCodes(R"(
h(X) :- r(X), X != X.
g(X) :- r(X), 1 > 2.
live(X) :- r(X), X != 1.
mixed(X) :- r(X), 2 > 1.5.
same(X) :- r(X), 1 == 1.0.
dead(X) :- r(X), 2 < 1.5.
r(1).
)");
  EXPECT_EQ(std::count(codes.begin(), codes.end(),
                       std::string(kCodeNeverFires)),
            3);
}

TEST(DeadCodePassTest, DuplicateRulesWarn) {
  auto codes = LintCodes(R"(
h(X) :- r(X).
h(X) :- r(X).
r(1).
)");
  EXPECT_TRUE(Has(codes, kCodeDuplicateRule));
}

TEST(DeadCodePassTest, GoalUnreachablePredicates) {
  AnalyzerOptions options;
  options.goal_predicate = "reach";
  auto result = LintProgramSource(R"(
start(1).
reach(X) :- start(X).
reach(Y) :- reach(X), e(X, Y).
island(X) :- e(X, X).
e(1, 2).
)",
                                  options);
  auto codes = CodesOf(result.sink);
  ASSERT_TRUE(Has(codes, kCodeDeadPredicate));
  for (const auto& d : result.sink.diagnostics()) {
    if (d.code == kCodeDeadPredicate) {
      EXPECT_NE(d.message.find("'island'"), std::string::npos) << d.message;
    }
  }
}

TEST(DeadCodePassTest, UnknownGoalWarnsOnce) {
  AnalyzerOptions options;
  options.goal_predicate = "nosuch";
  auto result = LintProgramSource(kReach, options);
  auto codes = CodesOf(result.sink);
  EXPECT_EQ(std::count(codes.begin(), codes.end(),
                       std::string(kCodeDeadPredicate)),
            1);
}

// ---- Lint pipeline ------------------------------------------------------

TEST(LintTest, SyntaxErrorRecoversAtRuleBoundary) {
  // Both malformed rules are reported in one run; no program is produced.
  auto result = LintProgramSource(R"(
h(X :- r(X).
k(X) :- r(X.
m(X) :- r(X).
)");
  EXPECT_FALSE(result.program.has_value());
  EXPECT_GE(result.sink.Count(Severity::kError), 2u);
  for (const auto& d : result.sink.diagnostics()) {
    EXPECT_EQ(d.code, kCodeSyntax);
    EXPECT_TRUE(d.span.valid()) << d.ToString();
  }
}

TEST(LintTest, MakeErrorsCarryRuleIndexAndSpan) {
  auto result = LintProgramSource("h(X) :- r(X).\ng(X, Y) :- r(X, Y).\n");
  EXPECT_FALSE(result.program.has_value());
  ASSERT_EQ(result.sink.Count(Severity::kError), 1u);
  const Diagnostic& d = result.sink.diagnostics().front();
  EXPECT_EQ(d.code, kCodeArityMismatch);
  EXPECT_NE(d.message.find("rule #2"), std::string::npos) << d.message;
  EXPECT_EQ(d.span.begin.line, 2u);
}

TEST(LintTest, CleanProgramYieldsOnlyNotes) {
  auto result = LintProgramSource(kReach);
  ASSERT_TRUE(result.program.has_value());
  EXPECT_EQ(result.sink.Count(Severity::kError), 0u);
  EXPECT_EQ(result.sink.Count(Severity::kWarning), 0u);
  EXPECT_GT(result.sink.Count(Severity::kNote), 0u);
}

}  // namespace
}  // namespace analysis
}  // namespace pfql
