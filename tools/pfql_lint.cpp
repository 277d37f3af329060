// pfql-lint: static analyzer front-end for probabilistic datalog programs.
//
//   pfql-lint [options] FILE...
//
//   --werror          treat warnings as errors (exit 1)
//   --json            machine-readable output (one JSON array, all files)
//   --sarif           SARIF 2.1.0 output (one log object, all files)
//   --no-notes        suppress N-severity fragment/termination hints
//   --goal PRED       query event relation (bare name or ground atom such
//                     as 'cur(2)'); enables the dead-predicate pass
//   --plan            also run the cost & chain-structure analysis and
//                     report its W/N diagnostics (and, without --json or
//                     --sarif, a plan summary per file)
//   --data FILE       EDB statistics for --plan (text instance format)
//   --max-states N    exact-evaluation budget --plan judges against
//   --compile-max-states N   compiled-tier budget --plan judges against
//   --codes           list every diagnostic code and exit
//
// Exit status: 0 clean (warnings allowed), 1 diagnostics at error severity
// (or warnings under --werror), 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost_model.h"
#include "analysis/diagnostic.h"
#include "analysis/sarif.h"
#include "relational/text_io.h"
#include "util/string_util.h"

using namespace pfql;

namespace {

// The largest --max-states and --compile-max-states: the largest state
// budget the wire's max_states field (a JSON int64) can carry.
constexpr uint64_t kMaxStatesFlag = INT64_MAX;

int Usage() {
  std::fprintf(stderr,
               "usage: pfql-lint [--werror] [--json] [--sarif] [--no-notes]\n"
               "                 [--goal PRED] [--plan] [--data FILE]\n"
               "                 [--max-states N] [--compile-max-states N]\n"
               "                 [--codes] FILE...\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Accepts either a bare relation name or a ground atom ('cur(2)').
std::string GoalRelation(const std::string& goal) {
  size_t paren = goal.find('(');
  std::string name = paren == std::string::npos ? goal
                                                : goal.substr(0, paren);
  while (!name.empty() && name.back() == ' ') name.pop_back();
  return name;
}

int ListCodes() {
  for (const auto& info : analysis::AllDiagnosticCodes()) {
    std::printf("%s  %-7s  %s\n", info.code,
                analysis::SeverityToString(info.default_severity),
                info.title);
  }
  return 0;
}

void PrintPlanSummary(const std::string& file,
                      const analysis::CostReport& report) {
  auto interval = [](const analysis::CostInterval& iv) {
    std::string out = "[" + std::to_string(iv.lo) + ", ";
    out += iv.bounded() ? std::to_string(iv.hi) : std::string("inf");
    return out + "]";
  };
  std::printf("%s: plan: states %s, edges %s, backend %s, sampler %s\n",
              file.c_str(), interval(report.states).c_str(),
              interval(report.edges).c_str(),
              report.backend_verdict.c_str(),
              report.recommended_sampler.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool werror = false, json = false, sarif = false, notes = true;
  bool plan = false;
  std::string goal, data_file;
  analysis::CostOptions cost_options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--werror") {
      werror = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--no-notes") {
      notes = false;
    } else if (arg == "--plan") {
      plan = true;
    } else if (arg == "--codes") {
      return ListCodes();
    } else if (arg == "--goal" || arg == "--event") {
      if (i + 1 >= argc) return Usage();
      goal = argv[++i];
    } else if (arg == "--data") {
      if (i + 1 >= argc) return Usage();
      data_file = argv[++i];
    } else if (arg == "--max-states" || arg == "--compile-max-states") {
      if (i + 1 >= argc) return Usage();
      auto v = ParseFlagValue(arg.substr(2), argv[++i], 1, kMaxStatesFlag);
      if (!v.ok()) {
        std::fprintf(stderr, "pfql-lint: %s\n", v.status().ToString().c_str());
        return Usage();
      }
      (arg == "--max-states" ? cost_options.max_states
                             : cost_options.compile_max_states) = *v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "pfql-lint: unknown option '%s'\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();
  if (json && sarif) {
    std::fprintf(stderr, "pfql-lint: --json and --sarif are exclusive\n");
    return Usage();
  }

  Instance edb;
  if (!data_file.empty()) {
    std::string data_text;
    if (!ReadFile(data_file, &data_text)) {
      std::fprintf(stderr, "pfql-lint: cannot open '%s'\n",
                   data_file.c_str());
      return 2;
    }
    auto parsed = ParseInstanceText(data_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "pfql-lint: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    edb = *std::move(parsed);
    cost_options.edb = &edb;
  }

  analysis::AnalyzerOptions options;
  options.emit_notes = notes;
  if (!goal.empty()) options.goal_predicate = GoalRelation(goal);

  size_t total_errors = 0, total_warnings = 0;
  std::vector<std::string> json_objects;
  std::vector<analysis::SarifArtifact> artifacts;
  for (const auto& file : files) {
    std::string source;
    if (!ReadFile(file, &source)) {
      std::fprintf(stderr, "pfql-lint: cannot open '%s'\n", file.c_str());
      return 2;
    }
    analysis::LintResult result =
        analysis::LintProgramSource(source, options);
    if (plan && result.program.has_value()) {
      // Cost-model diagnostics land in the same sink, so every output
      // mode (caret, --json, --sarif) carries them alongside the lint
      // findings.
      const analysis::CostReport report = analysis::AnalyzeCost(
          *result.program, cost_options, &result.sink);
      if (!json && !sarif) PrintPlanSummary(file, report);
    }
    total_errors += result.sink.Count(analysis::Severity::kError);
    total_warnings += result.sink.Count(analysis::Severity::kWarning);
    if (sarif) {
      analysis::SarifArtifact artifact;
      artifact.uri = file;
      for (const auto& d : result.sink.diagnostics()) {
        if (d.severity == analysis::Severity::kNote && !notes) continue;
        artifact.diagnostics.push_back(d);
      }
      artifacts.push_back(std::move(artifact));
    } else if (json) {
      // Collect each file's diagnostics; a single array is printed below.
      std::string array = analysis::DiagnosticsToJson(
          result.sink.diagnostics(), file);
      std::string body = array.substr(1, array.size() - 2);  // strip [ ]
      if (body.find('{') != std::string::npos) {
        // Trim the trailing newline DiagnosticsToJson places before ']'.
        while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
          body.pop_back();
        }
        json_objects.push_back(std::move(body));
      }
    } else {
      analysis::RenderOptions render;
      render.filename = file;
      render.show_notes = notes;
      std::string rendered =
          analysis::RenderDiagnostics(result.sink, source, render);
      std::fputs(rendered.c_str(), stdout);
    }
  }

  if (sarif) {
    std::printf("%s\n", analysis::DiagnosticsToSarif(artifacts).c_str());
  } else if (json) {
    std::string out = "[";
    for (size_t i = 0; i < json_objects.size(); ++i) {
      if (i > 0) out += ",";
      out += json_objects[i];
    }
    out += json_objects.empty() ? "]" : "\n]";
    std::printf("%s\n", out.c_str());
  }

  if (total_errors > 0) return 1;
  if (werror && total_warnings > 0) {
    if (!json && !sarif) {
      std::fprintf(stderr,
                   "pfql-lint: treating %zu warning%s as errors (--werror)\n",
                   total_warnings, total_warnings == 1 ? "" : "s");
    }
    return 1;
  }
  return 0;
}
