#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace stsyn::analysis {

const char* toString(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::size_t Diagnostics::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(items_.begin(), items_.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

bool Diagnostics::failed(bool werror) const {
  return count(Severity::Error) > 0 ||
         (werror && count(Severity::Warning) > 0);
}

void Diagnostics::sortByLocation() {
  std::stable_sort(
      items_.begin(), items_.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        if (a.loc.known() != b.loc.known()) return a.loc.known();
        if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
        if (a.loc.column != b.loc.column) return a.loc.column < b.loc.column;
        if (a.ruleId != b.ruleId) return a.ruleId < b.ruleId;
        return a.message < b.message;
      });
}

std::string formatText(const Diagnostics& diags, const std::string& file) {
  std::ostringstream out;
  for (const Diagnostic& d : diags.items()) {
    out << file << ':';
    if (d.loc.known()) out << d.loc.line << ':' << d.loc.column << ':';
    out << ' ' << toString(d.severity) << ": " << d.message << " ["
        << d.ruleId << "]\n";
  }
  const std::size_t errors = diags.count(Severity::Error);
  const std::size_t warnings = diags.count(Severity::Warning);
  const std::size_t notes = diags.count(Severity::Note);
  if (diags.empty()) {
    out << file << ": no lint issues\n";
  } else {
    out << file << ": " << errors << " error(s), " << warnings
        << " warning(s), " << notes << " note(s)\n";
  }
  return out.str();
}

namespace {

/// Escapes a string for embedding in a JSON string literal.
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// SARIF "level" property; SARIF has no dedicated severity for notes.
const char* sarifLevel(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "none";
}

/// Static per-rule metadata for the SARIF rule catalogue. helpUri anchors
/// match the per-rule headings in docs/lint_rules.md. Rule ids not in this
/// table (unlikely) get an id-only descriptor, which is still valid SARIF.
struct RuleMeta {
  const char* id;
  const char* shortDesc;
  const char* fullDesc;
};

constexpr RuleMeta kRuleCatalogue[] = {
    // Parse / builder validation tier.
    {"parse-error", "Source failed to parse",
     "The .stsyn input has a lexical or syntactic error; later tiers are "
     "skipped."},
    {"internal-error", "Analysis failed unexpectedly",
     "Parsing or linting threw an unexpected exception; the run is "
     "reported as failed instead of crashing."},
    {"no-variables", "Protocol declares no variables",
     "A protocol needs at least one variable to have any state."},
    {"empty-domain", "Variable domain is non-positive",
     "Every variable needs a domain of at least one value."},
    {"var-id-range", "Reference to an unknown variable",
     "An expression or locality list references a variable id outside the "
     "declaration table."},
    {"unsorted-locality", "Read/write list not sorted and duplicate-free",
     "Process read and write sets must be ascending and duplicate-free."},
    {"invariant-not-boolean", "Invariant is not boolean-valued",
     "The protocol invariant must be a boolean expression."},
    {"guard-not-boolean", "Guard is not boolean-valued",
     "Action guards must be boolean expressions."},
    {"assign-not-integer", "Assignment right-hand side is not integer-valued",
     "Assignment right-hand sides must be integer expressions."},
    {"write-restriction", "Assignment target outside the write set",
     "A process may only assign variables it declares as writable."},
    {"read-restriction", "Expression reads outside the read set",
     "Guards and assignment right-hand sides may only reference variables "
     "the process declares as readable."},
    {"duplicate-assignment", "Action assigns one variable twice",
     "Parallel assignments in one action must target distinct variables."},
    {"writes-not-readable", "Write set is not a subset of the read set",
     "Every written variable must also be readable (the paper's model has "
     "no blind writes)."},
    {"local-predicate-arity", "Local predicates set for only some processes",
     "Local predicates must be given for all processes or none."},
    {"local-predicate-not-boolean", "Local predicate is not boolean-valued",
     "Local predicates must be boolean expressions."},
    {"local-predicate-unreadable", "Local predicate reads outside read set",
     "A local predicate may only reference variables its process reads."},
    // AST lint tier (exact facts about the source).
    {"duplicate-process", "Two processes share a name",
     "Process names must be unique; diagnostics and stats key on them."},
    {"duplicate-label", "Two actions in one process share a label",
     "Action labels must be unique within a process."},
    {"invariant-unreadable", "Invariant references an unreadable variable",
     "The invariant references a variable no process can read, so recovery "
     "actions cannot depend on it."},
    {"compare-out-of-domain", "Comparison against an impossible value",
     "A comparison's constant side lies outside the values its variable "
     "side can take, making the comparison constant."},
    {"assign-out-of-domain", "Assignment can exceed the target's domain",
     "The right-hand side can take values outside the target variable's "
     "declared domain."},
    {"dead-variable", "Variable is never read or written",
     "The variable appears in no process's locality and not in the "
     "invariant."},
    // Symbolic lint tier (exact, BDD-backed).
    {"invariant-empty", "Invariant has no satisfying state",
     "The invariant BDD is the constant false; synthesis cannot succeed."},
    {"invariant-trivial", "Invariant holds in every state",
     "The invariant BDD is the constant true; convergence is vacuous."},
    {"guard-unsat", "Guard has no satisfying state",
     "The guard BDD is the constant false; the action can never fire."},
    {"guard-tautology", "Guard holds in every state",
     "The guard BDD covers every in-domain state; the action is always "
     "enabled."},
    {"dead-assignment", "Assignment can never change its target",
     "No state satisfying the guard has a right-hand side that differs "
     "from the target's current value."},
    {"action-identity", "Action never changes the state",
     "The action's transition relation is a subset of the identity."},
    {"action-overlap", "Two actions are enabled on a common state",
     "Two actions of one process share satisfying states — intentional "
     "nondeterminism or a missed guard conjunct."},
    {"symbolic-failure", "Symbolic tier failed to run",
     "Building the BDD encoding threw; exact rules were skipped."},
};

const RuleMeta* findRuleMeta(const std::string& id) {
  for (const RuleMeta& m : kRuleCatalogue) {
    if (id == m.id) return &m;
  }
  return nullptr;
}

}  // namespace

std::string formatSarif(const Diagnostics& diags, const std::string& file) {
  // Rule metadata: one reportingDescriptor per distinct rule id, in first-
  // appearance order.
  std::vector<std::string> ruleIds;
  for (const Diagnostic& d : diags.items()) {
    if (std::find(ruleIds.begin(), ruleIds.end(), d.ruleId) == ruleIds.end()) {
      ruleIds.push_back(d.ruleId);
    }
  }

  std::ostringstream out;
  out << "{\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"stsyn-lint\",\n"
      << "          \"informationUri\": "
         "\"https://github.com/stsyn/stsyn\",\n"
      << "          \"rules\": [";
  for (std::size_t i = 0; i < ruleIds.size(); ++i) {
    if (i > 0) out << ',';
    const RuleMeta* meta = findRuleMeta(ruleIds[i]);
    if (meta == nullptr) {
      out << "\n            {\"id\": \"" << jsonEscape(ruleIds[i]) << "\"}";
      continue;
    }
    out << "\n            {\n"
        << "              \"id\": \"" << jsonEscape(ruleIds[i]) << "\",\n"
        << "              \"shortDescription\": {\"text\": \""
        << jsonEscape(meta->shortDesc) << "\"},\n"
        << "              \"fullDescription\": {\"text\": \""
        << jsonEscape(meta->fullDesc) << "\"},\n"
        << "              \"helpUri\": "
           "\"https://github.com/stsyn/stsyn/blob/main/docs/lint_rules.md#"
        << jsonEscape(ruleIds[i]) << "\"\n"
        << "            }";
  }
  if (!ruleIds.empty()) out << "\n          ";
  out << "]\n"
      << "        }\n"
      << "      },\n"
      << "      \"columnKind\": \"unicodeCodePoints\",\n"
      << "      \"results\": [";
  const auto& items = diags.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Diagnostic& d = items[i];
    if (i > 0) out << ',';
    out << "\n        {\n"
        << "          \"ruleId\": \"" << jsonEscape(d.ruleId) << "\",\n"
        << "          \"level\": \"" << sarifLevel(d.severity) << "\",\n"
        << "          \"message\": {\"text\": \"" << jsonEscape(d.message)
        << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << jsonEscape(file) << "\"}";
    if (d.loc.known()) {
      out << ",\n                \"region\": {\"startLine\": " << d.loc.line
          << ", \"startColumn\": " << d.loc.column << "}";
    }
    out << "\n              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }";
  }
  if (!items.empty()) out << "\n      ";
  out << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace stsyn::analysis
