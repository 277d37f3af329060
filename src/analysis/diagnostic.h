// Structured diagnostics for the static analysis layer: every finding has a
// stable code (e.g. "PFQL-E002"), a severity, a human message, and a source
// span. Producers report into a DiagnosticSink; consumers either render the
// batch (caret-style or JSON, see below) or collapse it to a Status via the
// adapter so pre-existing StatusOr callers keep working.
#ifndef PFQL_ANALYSIS_DIAGNOSTIC_H_
#define PFQL_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/source_span.h"
#include "util/status.h"

namespace pfql {
namespace analysis {

enum class Severity {
  kNote,     ///< Informational hint (termination fragments, proofs).
  kWarning,  ///< Suspicious but evaluable; fatal under --werror.
  kError,    ///< Ill-formed program; evaluation would fail or be undefined.
};

const char* SeverityToString(Severity severity);

// ---- Stable diagnostic codes ------------------------------------------
//
// Codes are never renumbered or reused; docs/ANALYSIS.md catalogs each one
// with a minimal trigger and the paper definition it enforces, and lists
// the retired ones. The E/W/N letter mirrors the default severity.
inline constexpr char kCodeSyntax[] = "PFQL-E001";
inline constexpr char kCodeArityMismatch[] = "PFQL-E002";
inline constexpr char kCodeUnsafeHeadVar[] = "PFQL-E003";
inline constexpr char kCodeUnsafeWeightVar[] = "PFQL-E004";
inline constexpr char kCodeUnsafeBuiltinVar[] = "PFQL-E005";
inline constexpr char kCodeNonGroundFact[] = "PFQL-E006";
inline constexpr char kCodeMalformedAst[] = "PFQL-E007";
inline constexpr char kCodeWeightInKey[] = "PFQL-E010";
inline constexpr char kCodeKeyMaskConflict[] = "PFQL-E011";
inline constexpr char kCodeKeysNotProperSubset[] = "PFQL-E012";
inline constexpr char kCodeWeightedDeterministic[] = "PFQL-W011";
inline constexpr char kCodeOverlappingKeyGroups[] = "PFQL-W012";
inline constexpr char kCodeMixedRuleKinds[] = "PFQL-W013";
inline constexpr char kCodeNeverFires[] = "PFQL-W030";
inline constexpr char kCodeDeadPredicate[] = "PFQL-W031";
inline constexpr char kCodeDuplicateRule[] = "PFQL-W032";
inline constexpr char kCodeRecursiveScc[] = "PFQL-N020";
inline constexpr char kCodeProbabilisticRecursion[] = "PFQL-N021";
inline constexpr char kCodeLinearFragment[] = "PFQL-N040";
inline constexpr char kCodeNoProbabilisticRules[] = "PFQL-N041";
inline constexpr char kCodeBoundedStateSpace[] = "PFQL-N042";
inline constexpr char kCodeNonLinearRule[] = "PFQL-N044";
// Evaluation-time codes: backend selection and the cost-model planner
// (docs/ANALYSIS.md §cost model).
inline constexpr char kCodeForcedCompileFailed[] = "PFQL-E060";
inline constexpr char kCodePlanOverBudget[] = "PFQL-E070";
inline constexpr char kCodeUnboundedStateSpace[] = "PFQL-W070";
inline constexpr char kCodeReducibilityRisk[] = "PFQL-W071";
inline constexpr char kCodeChainStructure[] = "PFQL-N070";
inline constexpr char kCodeMemorylessChain[] = "PFQL-N071";
inline constexpr char kCodeStationaryPredicates[] = "PFQL-N072";
inline constexpr char kCodeBackendEligibility[] = "PFQL-N073";

/// One entry of the code registry (used by docs tests and `pfql-lint
/// --codes` to keep docs/ANALYSIS.md exhaustive).
struct DiagnosticCodeInfo {
  const char* code;
  Severity default_severity;
  const char* title;
};

/// Every registered code, sorted by code string.
const std::vector<DiagnosticCodeInfo>& AllDiagnosticCodes();

/// A single finding.
struct Diagnostic {
  std::string code;
  Severity severity = Severity::kError;
  std::string message;  ///< Human text; no location or code embedded.
  SourceSpan span;      ///< May be unknown (e.g. programmatic ASTs).
  /// StatusCode used when this diagnostic is collapsed to a Status.
  StatusCode status_code = StatusCode::kInvalidArgument;

  /// "error[PFQL-E002]: <message> (line 3, column 5)".
  std::string ToString() const;
};

/// Collects diagnostics from analysis passes. Reports preserve order.
class DiagnosticSink {
 public:
  void Report(Diagnostic diagnostic) {
    diagnostics_.push_back(std::move(diagnostic));
  }
  void Error(std::string code, StatusCode status_code, SourceSpan span,
             std::string message);
  void Warning(std::string code, SourceSpan span, std::string message);
  void Note(std::string code, SourceSpan span, std::string message);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  size_t Count(Severity severity) const;
  bool HasErrors() const { return Count(Severity::kError) > 0; }
  bool empty() const { return diagnostics_.empty(); }

  /// Status adapter: OK when no error-severity diagnostic was reported;
  /// otherwise the first error's status_code and rendered message. Keeps
  /// legacy StatusOr callers of Program::Make / ParseProgram working.
  Status ToStatus() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

// ---- Rendering ---------------------------------------------------------

struct RenderOptions {
  std::string filename;  ///< Prefixed to locations when non-empty.
  bool show_notes = true;
};

/// Caret-style rendering of one diagnostic against its source text:
///
///   reach.dl:3:26: error: predicate 'e' used with arity 3 ... [PFQL-E002]
///     c2(<X>, Y) @P :- cur(X), e(X, Y, P).
///                              ^~~~~~~~~~
std::string RenderDiagnostic(const Diagnostic& diagnostic,
                             std::string_view source,
                             const RenderOptions& options = {});

/// Renders every diagnostic in the sink plus a trailing summary line
/// ("2 errors, 1 warning."). Empty string when the sink is empty.
std::string RenderDiagnostics(const DiagnosticSink& sink,
                              std::string_view source,
                              const RenderOptions& options = {});

/// Machine-readable rendering: a JSON array of objects with keys
/// file, code, severity, message, line, column, end_line, end_column.
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics,
                              const std::string& filename);

}  // namespace analysis
}  // namespace pfql

#endif  // PFQL_ANALYSIS_DIAGNOSTIC_H_
