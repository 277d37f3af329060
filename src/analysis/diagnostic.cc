#include "analysis/diagnostic.h"

#include <algorithm>
#include <cstdio>

namespace pfql {
namespace analysis {

const char* SeverityToString(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const std::vector<DiagnosticCodeInfo>& AllDiagnosticCodes() {
  static const std::vector<DiagnosticCodeInfo> kCodes = {
      {kCodeSyntax, Severity::kError, "syntax error"},
      {kCodeArityMismatch, Severity::kError, "inconsistent predicate arity"},
      {kCodeUnsafeHeadVar, Severity::kError, "unsafe head variable"},
      {kCodeUnsafeWeightVar, Severity::kError, "unsafe weight variable"},
      {kCodeUnsafeBuiltinVar, Severity::kError, "unsafe builtin variable"},
      {kCodeNonGroundFact, Severity::kError, "non-ground fact"},
      {kCodeMalformedAst, Severity::kError, "malformed AST"},
      {kCodeWeightInKey, Severity::kError,
       "weight variable occupies a key position"},
      {kCodeKeyMaskConflict, Severity::kError,
       "conflicting key positions across probabilistic rules"},
      {kCodeKeysNotProperSubset, Severity::kError,
       "key columns not a proper subset of the head columns"},
      {kCodeWeightedDeterministic, Severity::kWarning,
       "weighted rule makes no probabilistic choice"},
      {kCodeOverlappingKeyGroups, Severity::kWarning,
       "overlapping probabilistic key groups"},
      {kCodeMixedRuleKinds, Severity::kWarning,
       "predicate mixes probabilistic and deterministic rules"},
      {kCodeNeverFires, Severity::kWarning, "rule can never fire"},
      {kCodeDeadPredicate, Severity::kWarning,
       "predicate does not contribute to the query event"},
      {kCodeDuplicateRule, Severity::kWarning, "duplicate rule"},
      {kCodeRecursiveScc, Severity::kNote, "recursive predicate group"},
      {kCodeProbabilisticRecursion, Severity::kNote,
       "probabilistic choice inside recursion"},
      {kCodeLinearFragment, Severity::kNote, "linear datalog fragment"},
      {kCodeNoProbabilisticRules, Severity::kNote,
       "datalog without probabilistic rules"},
      {kCodeBoundedStateSpace, Severity::kNote,
       "reachable state space bounded by the active domain"},
      {kCodeNonLinearRule, Severity::kNote, "rule outside linear datalog"},
      {kCodeForcedCompileFailed, Severity::kError,
       "forced compiled backend failed to compile the chain"},
      {kCodePlanOverBudget, Severity::kError,
       "predicted state space exceeds the evaluation budget"},
      {kCodeUnboundedStateSpace, Severity::kWarning,
       "state-space bound unknown or unbounded"},
      {kCodeReducibilityRisk, Severity::kWarning,
       "chain may be reducible or periodic"},
      {kCodeChainStructure, Severity::kNote, "chain structure summary"},
      {kCodeMemorylessChain, Severity::kNote,
       "memoryless chain (mixes in one step)"},
      {kCodeStationaryPredicates, Severity::kNote,
       "predicates guaranteed to absorb"},
      {kCodeBackendEligibility, Severity::kNote,
       "compiled-backend eligibility verdict"},
  };
  return kCodes;
}

std::string Diagnostic::ToString() const {
  std::string out = std::string(SeverityToString(severity)) + "[" + code +
                    "]: " + message;
  if (span.valid()) out += " (" + span.ToString() + ")";
  return out;
}

void DiagnosticSink::Error(std::string code, StatusCode status_code,
                           SourceSpan span, std::string message) {
  Report({std::move(code), Severity::kError, std::move(message), span,
          status_code});
}

void DiagnosticSink::Warning(std::string code, SourceSpan span,
                             std::string message) {
  Report({std::move(code), Severity::kWarning, std::move(message), span,
          StatusCode::kInvalidArgument});
}

void DiagnosticSink::Note(std::string code, SourceSpan span,
                          std::string message) {
  Report({std::move(code), Severity::kNote, std::move(message), span,
          StatusCode::kOk});
}

size_t DiagnosticSink::Count(Severity severity) const {
  size_t n = 0;
  for (const auto& d : diagnostics_) {
    if (d.severity == severity) ++n;
  }
  return n;
}

Status DiagnosticSink::ToStatus() const {
  for (const auto& d : diagnostics_) {
    if (d.severity == Severity::kError) {
      return Status(d.status_code, d.ToString());
    }
  }
  return Status::OK();
}

namespace {

/// The `line`-th (1-based) line of `source`, without its newline.
std::string_view SourceLine(std::string_view source, size_t line) {
  size_t start = 0;
  for (size_t l = 1; l < line; ++l) {
    size_t nl = source.find('\n', start);
    if (nl == std::string_view::npos) return {};
    start = nl + 1;
  }
  size_t end = source.find('\n', start);
  if (end == std::string_view::npos) end = source.size();
  return source.substr(start, end - start);
}

void JsonEscapeInto(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

std::string RenderDiagnostic(const Diagnostic& diagnostic,
                             std::string_view source,
                             const RenderOptions& options) {
  std::string out;
  if (!options.filename.empty()) out += options.filename + ":";
  if (diagnostic.span.valid()) {
    out += std::to_string(diagnostic.span.begin.line) + ":" +
           std::to_string(diagnostic.span.begin.column) + ":";
  }
  if (!out.empty()) out += " ";
  out += SeverityToString(diagnostic.severity);
  out += ": " + diagnostic.message + " [" + diagnostic.code + "]\n";
  if (!diagnostic.span.valid()) return out;

  std::string_view line = SourceLine(source, diagnostic.span.begin.line);
  if (line.empty() && diagnostic.span.begin.column > line.size() + 1) {
    return out;  // Span does not match this source text; skip the caret.
  }
  out += "  ";
  out.append(line.begin(), line.end());
  out += "\n  ";
  const size_t begin_col = diagnostic.span.begin.column;
  size_t end_col = diagnostic.span.end.line == diagnostic.span.begin.line &&
                           diagnostic.span.end.column > begin_col
                       ? diagnostic.span.end.column
                       : begin_col + 1;
  // Multi-line spans underline to the end of the first line.
  if (diagnostic.span.end.line > diagnostic.span.begin.line) {
    end_col = line.size() + 1;
  }
  end_col = std::min(end_col, line.size() + 2);
  for (size_t c = 1; c < begin_col; ++c) {
    out.push_back(c - 1 < line.size() && line[c - 1] == '\t' ? '\t' : ' ');
  }
  out.push_back('^');
  for (size_t c = begin_col + 1; c < end_col; ++c) out.push_back('~');
  out.push_back('\n');
  return out;
}

std::string RenderDiagnostics(const DiagnosticSink& sink,
                              std::string_view source,
                              const RenderOptions& options) {
  std::string out;
  for (const auto& d : sink.diagnostics()) {
    if (d.severity == Severity::kNote && !options.show_notes) continue;
    out += RenderDiagnostic(d, source, options);
  }
  auto plural = [](size_t n, const char* word) {
    return std::to_string(n) + " " + word + (n == 1 ? "" : "s");
  };
  const size_t errors = sink.Count(Severity::kError);
  const size_t warnings = sink.Count(Severity::kWarning);
  if (errors + warnings > 0) {
    std::string summary;
    if (errors > 0) summary += plural(errors, "error");
    if (warnings > 0) {
      if (!summary.empty()) summary += ", ";
      summary += plural(warnings, "warning");
    }
    out += summary + ".\n";
  }
  return out;
}

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics,
                              const std::string& filename) {
  std::string out = "[";
  bool first = true;
  for (const auto& d : diagnostics) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"file\": \"";
    JsonEscapeInto(filename, &out);
    out += "\", \"code\": \"";
    JsonEscapeInto(d.code, &out);
    out += "\", \"severity\": \"";
    out += SeverityToString(d.severity);
    out += "\", \"message\": \"";
    JsonEscapeInto(d.message, &out);
    out += "\"";
    if (d.span.valid()) {
      out += ", \"line\": " + std::to_string(d.span.begin.line) +
             ", \"column\": " + std::to_string(d.span.begin.column) +
             ", \"end_line\": " + std::to_string(d.span.end.line) +
             ", \"end_column\": " + std::to_string(d.span.end.column);
    }
    out += "}";
  }
  out += first ? "]" : "\n]";
  return out;
}

}  // namespace analysis
}  // namespace pfql
