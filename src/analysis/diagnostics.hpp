// Structured diagnostics for the protocol linter (src/analysis/lint.hpp).
//
// A Diagnostic carries a stable rule id, a severity, a human-readable
// message, and the source position of the offending entity in the .stsyn
// input. The Diagnostics sink accumulates them (from the builder's
// validation pass and from the lint rules alike) and renders them either
// as compiler-style text or as a SARIF 2.1.0 log for CI and editors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "protocol/protocol.hpp"

namespace stsyn::analysis {

enum class Severity : std::uint8_t {
  Note,     ///< informational; never fails a lint run
  Warning,  ///< suspicious; fails the run only under --werror
  Error,    ///< definite defect; always fails the run
};

[[nodiscard]] const char* toString(Severity s);

struct Diagnostic {
  std::string ruleId;
  Severity severity = Severity::Warning;
  std::string message;
  protocol::SourceLoc loc;  // (0,0) when the entity has no source position
};

/// Accumulates diagnostics from every stage of a lint run.
class Diagnostics {
 public:
  void add(std::string ruleId, Severity severity, std::string message,
           protocol::SourceLoc loc = {}) {
    items_.push_back({std::move(ruleId), severity, std::move(message), loc});
  }

  /// Converts a builder validation issue; all validation rules are errors.
  void addIssue(const protocol::ValidationIssue& issue) {
    add(issue.rule, Severity::Error, issue.message, issue.loc);
  }

  [[nodiscard]] const std::vector<Diagnostic>& items() const { return items_; }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t count(Severity s) const;

  /// True when the run should fail: any error, or (under werror) any
  /// warning. Notes never fail a run.
  [[nodiscard]] bool failed(bool werror) const;

  /// Orders diagnostics fully deterministically: by source position
  /// (unknown positions last), then rule id, then message — so SARIF
  /// baselines and --werror gates are stable across runs and platforms.
  void sortByLocation();

 private:
  std::vector<Diagnostic> items_;
};

/// Compiler-style rendering: "file:line:col: severity: message [rule]",
/// one line per diagnostic, plus a trailing summary line.
[[nodiscard]] std::string formatText(const Diagnostics& diags,
                                     const std::string& file);

/// SARIF 2.1.0 rendering (static-analysis interchange format): one run of
/// the "stsyn-lint" tool with one result per diagnostic.
[[nodiscard]] std::string formatSarif(const Diagnostics& diags,
                                      const std::string& file);

}  // namespace stsyn::analysis
