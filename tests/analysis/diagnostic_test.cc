#include "analysis/diagnostic.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

namespace pfql {
namespace analysis {
namespace {

Diagnostic MakeDiag(std::string code, Severity severity, std::string message,
                    size_t line = 0, size_t col = 0, size_t end_col = 0) {
  Diagnostic d;
  d.code = std::move(code);
  d.severity = severity;
  d.message = std::move(message);
  if (line > 0) {
    d.span.begin = {line, col};
    d.span.end = {line, end_col};
  }
  return d;
}

TEST(DiagnosticTest, ToStringIncludesSeverityCodeAndLocation) {
  Diagnostic d = MakeDiag("PFQL-E002", Severity::kError, "bad arity", 3, 5, 9);
  EXPECT_EQ(d.ToString(), "error[PFQL-E002]: bad arity (line 3, column 5)");
  Diagnostic spanless =
      MakeDiag("PFQL-N040", Severity::kNote, "linear datalog");
  EXPECT_EQ(spanless.ToString(), "note[PFQL-N040]: linear datalog");
}

TEST(DiagnosticSinkTest, CountsBySeverityAndDetectsErrors) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  EXPECT_FALSE(sink.HasErrors());
  EXPECT_TRUE(sink.ToStatus().ok());

  sink.Note("PFQL-N040", SourceSpan(), "note");
  sink.Warning("PFQL-W030", SourceSpan(), "warning");
  EXPECT_FALSE(sink.HasErrors());
  EXPECT_TRUE(sink.ToStatus().ok());

  sink.Error("PFQL-E002", StatusCode::kTypeError, SourceSpan(), "first");
  sink.Error("PFQL-E003", StatusCode::kInvalidArgument, SourceSpan(),
             "second");
  EXPECT_EQ(sink.Count(Severity::kNote), 1u);
  EXPECT_EQ(sink.Count(Severity::kWarning), 1u);
  EXPECT_EQ(sink.Count(Severity::kError), 2u);
  EXPECT_TRUE(sink.HasErrors());
}

TEST(DiagnosticSinkTest, ToStatusUsesFirstErrorAndItsStatusCode) {
  DiagnosticSink sink;
  sink.Warning("PFQL-W030", SourceSpan(), "ignored by the adapter");
  sink.Error("PFQL-E002", StatusCode::kTypeError, SourceSpan(), "first");
  sink.Error("PFQL-E003", StatusCode::kInvalidArgument, SourceSpan(),
             "second");
  Status status = sink.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_NE(status.message().find("PFQL-E002"), std::string::npos);
  EXPECT_NE(status.message().find("first"), std::string::npos);
}

TEST(DiagnosticRenderTest, CaretUnderlinesSpan) {
  const std::string source = "h(X) :- r(X, Y).\nq(Z) :- h(Z).\n";
  Diagnostic d = MakeDiag("PFQL-E002", Severity::kError, "arity", 1, 9, 16);
  RenderOptions options;
  options.filename = "prog.dl";
  EXPECT_EQ(RenderDiagnostic(d, source, options),
            "prog.dl:1:9: error: arity [PFQL-E002]\n"
            "  h(X) :- r(X, Y).\n"
            "          ^~~~~~~\n");
}

TEST(DiagnosticRenderTest, UnknownSpanRendersWithoutCaret) {
  Diagnostic d = MakeDiag("PFQL-N040", Severity::kNote, "linear");
  EXPECT_EQ(RenderDiagnostic(d, "src", {}), "note: linear [PFQL-N040]\n");
}

TEST(DiagnosticRenderTest, SummaryLinePluralizes) {
  DiagnosticSink sink;
  sink.Error("PFQL-E002", StatusCode::kTypeError, SourceSpan(), "a");
  sink.Error("PFQL-E003", StatusCode::kInvalidArgument, SourceSpan(), "b");
  sink.Warning("PFQL-W030", SourceSpan(), "c");
  std::string rendered = RenderDiagnostics(sink, "");
  EXPECT_NE(rendered.find("2 errors, 1 warning.\n"), std::string::npos);
}

TEST(DiagnosticJsonTest, EscapesAndSerializesSpans) {
  std::vector<Diagnostic> diags;
  diags.push_back(MakeDiag("PFQL-E001", Severity::kError,
                           "expected \"term\"\nhere", 2, 4, 7));
  std::string json = DiagnosticsToJson(diags, "a\\b.dl");
  EXPECT_NE(json.find("\"file\": \"a\\\\b.dl\""), std::string::npos);
  EXPECT_NE(json.find("\\\"term\\\"\\nhere"), std::string::npos);
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"end_column\": 7"), std::string::npos);
  EXPECT_EQ(DiagnosticsToJson({}, "x.dl"), "[]");
}

TEST(DiagnosticCodesTest, RegistryHasUniqueWellFormedCodes) {
  std::set<std::string> seen;
  for (const auto& info : AllDiagnosticCodes()) {
    std::string code = info.code;
    ASSERT_EQ(code.size(), 9u) << code;
    EXPECT_EQ(code.rfind("PFQL-", 0), 0u) << code;
    const char kind = code[5];
    EXPECT_TRUE(kind == 'E' || kind == 'W' || kind == 'N') << code;
    switch (info.default_severity) {
      case Severity::kError:
        EXPECT_EQ(kind, 'E') << code;
        break;
      case Severity::kWarning:
        EXPECT_EQ(kind, 'W') << code;
        break;
      case Severity::kNote:
        EXPECT_EQ(kind, 'N') << code;
        break;
    }
    EXPECT_TRUE(seen.insert(code).second) << "duplicate code " << code;
  }
}

std::string ReadAnalysisDocs() {
  std::ifstream in(std::string(PFQL_REPO_DIR) + "/docs/ANALYSIS.md");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::set<std::string> RegisteredCodes() {
  std::set<std::string> codes;
  for (const auto& info : AllDiagnosticCodes()) codes.insert(info.code);
  return codes;
}

TEST(DiagnosticCodesTest, EveryCodeIsCatalogedInDocs) {
  const std::string docs = ReadAnalysisDocs();
  ASSERT_FALSE(docs.empty()) << "docs/ANALYSIS.md missing";
  for (const auto& info : AllDiagnosticCodes()) {
    EXPECT_NE(docs.find(info.code), std::string::npos)
        << info.code << " is not documented in docs/ANALYSIS.md";
  }
}

// The converse: the catalog presents no code the registry lacks, and the
// retired codes it lists stay out of the registry.
TEST(DiagnosticCodesTest, EveryCatalogedCodeIsRegisteredUnlessRetired) {
  const std::string docs = ReadAnalysisDocs();
  const size_t retired_at = docs.find("\n## Retired codes\n");
  ASSERT_NE(retired_at, std::string::npos)
      << "docs/ANALYSIS.md has no retired-codes section";
  const size_t retired_end = docs.find("\n## ", retired_at + 1);
  const std::set<std::string> registered = RegisteredCodes();
  size_t headings = 0;
  for (size_t at = docs.find("\n### PFQL-"); at != std::string::npos;
       at = docs.find("\n### PFQL-", at + 1)) {
    const std::string code = docs.substr(at + 5, 9);
    EXPECT_LT(at, retired_at) << code << " is headed in the retired section";
    EXPECT_TRUE(registered.count(code))
        << code << " is cataloged in docs/ANALYSIS.md but not registered";
    ++headings;
  }
  EXPECT_EQ(headings, registered.size());
  const std::string retired =
      docs.substr(retired_at, retired_end - retired_at);
  size_t listed = 0;
  for (size_t at = retired.find("PFQL-"); at != std::string::npos;
       at = retired.find("PFQL-", at + 1)) {
    const std::string code = retired.substr(at, 9);
    EXPECT_FALSE(registered.count(code))
        << code << " is retired in docs/ANALYSIS.md but registered again";
    ++listed;
  }
  EXPECT_GT(listed, 0u);
}

}  // namespace
}  // namespace analysis
}  // namespace pfql
