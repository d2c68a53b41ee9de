// Tests for the protocol linter (src/analysis): every rule has a positive
// fixture (a seeded defect that triggers exactly that rule at the expected
// source span) and the clean fixtures trigger nothing; plus diagnostics
// plumbing, the SARIF rendering shape, and the rule catalogue's agreement
// with docs/lint_rules.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>

#include "analysis/lint.hpp"
#include "lang/parser.hpp"
#include "protocol/builder.hpp"

namespace {

using namespace stsyn;
using analysis::Diagnostic;
using analysis::Diagnostics;
using analysis::Severity;

/// Lints a source string and returns the diagnostics.
Diagnostics lint(std::string_view source) {
  Diagnostics diags;
  analysis::lintSource(source, diags);
  return diags;
}

/// The diagnostics whose ruleId matches.
std::vector<Diagnostic> ofRule(const Diagnostics& diags,
                               std::string_view rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags.items()) {
    if (d.ruleId == rule) out.push_back(d);
  }
  return out;
}

/// Asserts exactly one diagnostic of `rule` exists, at line:column.
void expectOne(const Diagnostics& diags, std::string_view rule, int line,
               int column, Severity severity) {
  const std::vector<Diagnostic> hits = ofRule(diags, rule);
  ASSERT_EQ(hits.size(), 1u) << "rule " << rule << " in:\n"
                             << analysis::formatText(diags, "<test>");
  EXPECT_EQ(hits[0].loc.line, line) << rule;
  EXPECT_EQ(hits[0].loc.column, column) << rule;
  EXPECT_EQ(hits[0].severity, severity) << rule;
}

// ---------------------------------------------------------------------------
// Negative: clean protocols produce no diagnostics.
// ---------------------------------------------------------------------------

TEST(Lint, CleanProtocolHasNoDiagnostics) {
  const Diagnostics diags = lint(R"(protocol clean;
var x0 : 0..2;
var x1 : 0..2;
process P0 {
  reads x0, x1;
  writes x0;
  action bump : x0 == x1 -> x0 := (x1 + 1) mod 3;
}
process P1 {
  reads x0, x1;
  writes x1;
  action chase : x1 != x0 -> x1 := x0;
}
invariant : x0 == x1 || (x1 + 1) mod 3 == x0;
)");
  EXPECT_TRUE(diags.empty()) << analysis::formatText(diags, "<test>");
  EXPECT_FALSE(diags.failed(true));
}

// ---------------------------------------------------------------------------
// AST tier, validation-derived rules.
// ---------------------------------------------------------------------------

TEST(Lint, ReadRestrictionViolationAtActionSpan) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
var y : 0..1;
process P {
  reads x;
  writes x;
  action peek : y == 0 -> x := 1;
}
invariant : x == 0;
)");
  expectOne(diags, "read-restriction", 7, 3, Severity::Error);
  EXPECT_TRUE(diags.failed(false));
}

TEST(Lint, WriteRestrictionViolationAtActionSpan) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
var y : 0..1;
process P {
  reads x, y;
  writes x;
  action sneak : x == 0 -> y := 1;
}
invariant : x == 0;
)");
  expectOne(diags, "write-restriction", 7, 3, Severity::Error);
}

TEST(Lint, DuplicateAssignmentTarget) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
  action twice : x == 0 -> x := 1, x := 0;
}
invariant : x == 0;
)");
  expectOne(diags, "duplicate-assignment", 6, 3, Severity::Error);
}

TEST(Lint, NonBooleanGuard) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
  action g : x + 1 -> x := 0;
}
invariant : x == 0;
)");
  expectOne(diags, "guard-not-boolean", 6, 3, Severity::Error);
}

TEST(Lint, LenientParsingReportsAllIssuesAtOnce) {
  // One run surfaces both defects; the strict parser would stop at the
  // first.
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
var y : 0..1;
process P {
  reads x;
  writes x;
  action peek : y == 0 -> x := 1;
}
process Q {
  reads y;
  writes y;
  action sneak : y == 0 -> x := 1;
}
invariant : x == 0;
)");
  EXPECT_EQ(ofRule(diags, "read-restriction").size(), 1u);
  EXPECT_EQ(ofRule(diags, "write-restriction").size(), 1u);
}

// ---------------------------------------------------------------------------
// AST tier, lint-only rules.
// ---------------------------------------------------------------------------

TEST(Lint, InvariantOverUnreadableVariable) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
var g : 0..1;
process P {
  reads x;
  writes x;
  action a : x == 0 -> x := 1;
}
invariant : x == 0 && g == 0;
)");
  expectOne(diags, "invariant-unreadable", 9, 1, Severity::Warning);
}

TEST(Lint, CompareOutOfDomain) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..2;
process P {
  reads x;
  writes x;
  action a : x == 7 -> x := 0;
}
invariant : x == 0;
)");
  expectOne(diags, "compare-out-of-domain", 6, 3, Severity::Warning);
  // A warning leaves the protocol compilable, so the symbolic tier also
  // proves the guard unsatisfiable.
  expectOne(diags, "guard-unsat", 6, 3, Severity::Warning);
}

TEST(Lint, AssignOutOfDomainIsAnError) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..2;
process P {
  reads x;
  writes x;
  action inc : x < 2 -> x := x + 1;
}
invariant : x == 0;
)");
  // x + 1 ranges over 1..3; the symbolic compiler would reject value 3.
  expectOne(diags, "assign-out-of-domain", 6, 3, Severity::Error);
}

TEST(Lint, DuplicateActionLabel) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
  action go : x == 0 -> x := 1;
  action go : x == 1 -> x := 0;
}
invariant : x == 0;
)");
  expectOne(diags, "duplicate-label", 7, 3, Severity::Warning);
}

TEST(Lint, DuplicateProcessName) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
var y : 0..1;
process P {
  reads x;
  writes x;
}
process P {
  reads y;
  writes y;
}
invariant : x == 0 && y == 0;
)");
  expectOne(diags, "duplicate-process", 8, 9, Severity::Warning);
}

TEST(Lint, DeadVariable) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
var unused : 0..3;
process P {
  reads x;
  writes x;
  action a : x == 0 -> x := 1;
}
invariant : x == 0;
)");
  expectOne(diags, "dead-variable", 3, 5, Severity::Warning);
}

// ---------------------------------------------------------------------------
// Symbolic tier: every semantic rule is decided exactly on the BDD
// encoding, whether the defect is per-variable or relational.
// ---------------------------------------------------------------------------

TEST(Lint, UnsatisfiableGuard) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..2;
process P {
  reads x;
  writes x;
  action never : x == 0 && x == 1 -> x := 2;
  action fine : x == 0 -> x := 1;
}
invariant : x == 0 || x == 1;
)");
  expectOne(diags, "guard-unsat", 6, 3, Severity::Warning);
  // An unsatisfiable guard is reported once: its assignment is not also
  // called dead, nor the action the identity.
  EXPECT_EQ(diags.items().size(), 1u)
      << analysis::formatText(diags, "<test>");
}

TEST(Lint, RelationalUnsatGuardFallsToSymbolicTier) {
  // x == y && x != y constrains no variable alone; the BDD proves it
  // empty.
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
var y : 0..1;
process P {
  reads x, y;
  writes x;
  action never : x == y && x != y -> x := y;
}
invariant : x == 0;
)");
  expectOne(diags, "guard-unsat", 7, 3, Severity::Warning);
}

TEST(Lint, IdentityAction) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
  action idle : x == 1 -> x := 1;
}
invariant : x == 0;
)");
  expectOne(diags, "action-identity", 6, 3, Severity::Warning);
}

TEST(Lint, OverlappingActionsWithDifferentEffectsAreANote) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..2;
process P {
  reads x;
  writes x;
  action up : x == 0 -> x := 1;
  action down : x == 0 -> x := 2;
}
invariant : x == 1 || x == 2;
)");
  expectOne(diags, "action-overlap", 7, 3, Severity::Note);
  // Nondeterminism is legal in the guarded-command model: a note never
  // fails the run, even under --werror.
  EXPECT_FALSE(diags.failed(true));
}

TEST(Lint, DisjointOrIdenticalActionsDoNotOverlapReport) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..2;
process P {
  reads x;
  writes x;
  action a : x == 0 -> x := 1;
  action b : x == 1 -> x := 2;
}
invariant : x == 2;
)");
  EXPECT_TRUE(ofRule(diags, "action-overlap").empty());
}

TEST(Lint, EmptyInvariant) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
}
invariant : x == 0 && x == 1;
)");
  expectOne(diags, "invariant-empty", 7, 1, Severity::Error);
}

TEST(Lint, RelationalEmptyInvariantFallsToSymbolicTier) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
var y : 0..1;
process P {
  reads x, y;
  writes x;
}
invariant : x == y && x != y;
)");
  expectOne(diags, "invariant-empty", 8, 1, Severity::Error);
}

TEST(Lint, TrivialInvariant) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
}
invariant : true;
)");
  expectOne(diags, "invariant-trivial", 7, 1, Severity::Warning);
}

TEST(Lint, DisjunctiveTrivialInvariantFallsToSymbolicTier) {
  // x == 0 || x != 0 is a tautology no single literal shows.
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
}
invariant : x == 0 || x != 0;
)");
  expectOne(diags, "invariant-trivial", 7, 1, Severity::Warning);
}

TEST(Lint, AllGuardsUnsatisfiable) {
  // A degenerate protocol built without source: every guard is impossible
  // over the declared domains, one per-variable, one through arithmetic.
  protocol::ProtocolBuilder b("frozen");
  const protocol::VarId x = b.variable("x", 2);
  const protocol::VarId y = b.variable("y", 2);
  const std::size_t p0 = b.process("P0", {x, y}, {x});
  const std::size_t p1 = b.process("P1", {x, y}, {y});
  b.action(p0, "a", protocol::ref(x) == protocol::lit(5),
           {{x, protocol::lit(0)}});
  b.action(p1, "b", protocol::ref(y) + protocol::ref(x) > protocol::lit(2),
           {{y, protocol::lit(0)}});
  b.invariant(protocol::ref(x) == protocol::lit(0));
  Diagnostics diags;
  analysis::lintProtocol(b.build(), {}, diags);
  EXPECT_EQ(ofRule(diags, "guard-unsat").size(), 2u)
      << analysis::formatText(diags, "<test>");
  EXPECT_FALSE(diags.failed(false));  // warnings only
}

TEST(Lint, DeadAssignmentAndTautology) {
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..2;
process P {
  reads x;
  writes x;
  action dead : x == 2 -> x := 2;
  action always : x >= 0 -> x := 1;
}
invariant : x == 0;
)");
  // x == 2 holds only where x already is 2.
  expectOne(diags, "dead-assignment", 6, 3, Severity::Warning);
  expectOne(diags, "guard-tautology", 7, 3, Severity::Note);
  // A relational self-copy is dead too; the guard that covers every
  // state is a tautology although no literal is.
  const Diagnostics rel = lint(R"(protocol p;
var x : 0..1;
var y : 0..1;
process P {
  reads x, y;
  writes x;
  action copy : x == y -> x := y;
  action any : x == y || x != y -> x := (x + 1) mod 2;
}
invariant : x == 0;
)");
  expectOne(rel, "dead-assignment", 7, 3, Severity::Warning);
  expectOne(rel, "guard-tautology", 8, 3, Severity::Note);
}

TEST(Lint, SymbolicTierSkippedWhenAstTierErrors) {
  // The broken guard makes the protocol uncompilable; the symbolic tier
  // must not crash, it must simply not run.
  const Diagnostics diags = lint(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
  action g : x + 1 -> x := 0;
  action idle : x == 1 -> x := 1;
}
invariant : x == 0;
)");
  EXPECT_EQ(ofRule(diags, "guard-not-boolean").size(), 1u);
  EXPECT_TRUE(ofRule(diags, "action-identity").empty());
}

// ---------------------------------------------------------------------------
// Parse errors flow into diagnostics.
// ---------------------------------------------------------------------------

TEST(Lint, ParseErrorBecomesDiagnostic) {
  Diagnostics diags;
  const bool parsed = analysis::lintSource("protocol p;\nvar x 0..1;\n", diags);
  EXPECT_FALSE(parsed);
  expectOne(diags, "parse-error", 2, 7, Severity::Error);
  EXPECT_TRUE(diags.failed(false));
}

// ---------------------------------------------------------------------------
// Diagnostics plumbing.
// ---------------------------------------------------------------------------

TEST(Diagnostics, SeverityCountsAndFailure) {
  Diagnostics d;
  d.add("r1", Severity::Note, "n");
  d.add("r2", Severity::Warning, "w");
  EXPECT_EQ(d.count(Severity::Note), 1u);
  EXPECT_EQ(d.count(Severity::Warning), 1u);
  EXPECT_EQ(d.count(Severity::Error), 0u);
  EXPECT_FALSE(d.failed(false));
  EXPECT_TRUE(d.failed(true));
  d.add("r3", Severity::Error, "e");
  EXPECT_TRUE(d.failed(false));
}

TEST(Diagnostics, SortByLocationKeepsUnknownLast) {
  Diagnostics d;
  d.add("a", Severity::Warning, "unpositioned");
  d.add("b", Severity::Warning, "late", {9, 1});
  d.add("c", Severity::Warning, "early", {2, 5});
  d.add("d", Severity::Warning, "same line later column", {2, 9});
  d.sortByLocation();
  ASSERT_EQ(d.items().size(), 4u);
  EXPECT_EQ(d.items()[0].ruleId, "c");
  EXPECT_EQ(d.items()[1].ruleId, "d");
  EXPECT_EQ(d.items()[2].ruleId, "b");
  EXPECT_EQ(d.items()[3].ruleId, "a");
}

TEST(Diagnostics, TextFormatIsCompilerStyle) {
  Diagnostics d;
  d.add("dead-variable", Severity::Warning, "variable z is dead", {3, 5});
  const std::string text = analysis::formatText(d, "proto.stsyn");
  EXPECT_NE(text.find("proto.stsyn:3:5: warning: variable z is dead "
                      "[dead-variable]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("1 warning(s)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SARIF shape.
// ---------------------------------------------------------------------------

TEST(Sarif, OutputHasExpectedShape) {
  Diagnostics d;
  d.add("guard-unsat", Severity::Warning, "guard is \"unsatisfiable\"",
        {6, 3});
  d.add("invariant-empty", Severity::Error, "no legitimate states", {9, 1});
  const std::string sarif = analysis::formatSarif(d, "proto.stsyn");

  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"stsyn-lint\""), std::string::npos);
  // Rule metadata lists each distinct rule once, with descriptions and a
  // docs anchor.
  EXPECT_NE(sarif.find("\"id\": \"guard-unsat\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"invariant-empty\""), std::string::npos);
  EXPECT_NE(sarif.find("\"shortDescription\""), std::string::npos);
  EXPECT_NE(sarif.find("\"fullDescription\""), std::string::npos);
  EXPECT_NE(sarif.find("\"helpUri\": \"https://github.com/stsyn/stsyn/"
                       "blob/main/docs/lint_rules.md#guard-unsat\""),
            std::string::npos);
  // Every rule is exact: no result or rule carries a precision property.
  EXPECT_EQ(sarif.find("\"properties\""), std::string::npos);
  // Column semantics are pinned at the run level.
  EXPECT_NE(sarif.find("\"columnKind\": \"unicodeCodePoints\""),
            std::string::npos);
  // Results carry level, message, and a physical location with a region.
  EXPECT_NE(sarif.find("\"ruleId\": \"guard-unsat\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 6, \"startColumn\": 3"),
            std::string::npos);
  // Quotes inside messages are escaped.
  EXPECT_NE(sarif.find("guard is \\\"unsatisfiable\\\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"proto.stsyn\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity check.
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
            std::count(sarif.begin(), sarif.end(), '}'));
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '['),
            std::count(sarif.begin(), sarif.end(), ']'));
}

TEST(Sarif, EmptyRunIsStillWellFormed) {
  const Diagnostics d;
  const std::string sarif = analysis::formatSarif(d, "clean.stsyn");
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
            std::count(sarif.begin(), sarif.end(), '}'));
}

/// Every match of `pattern`'s first group in the file at `path`.
std::set<std::string> matchesIn(const std::string& path,
                                const std::regex& pattern) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::set<std::string> out;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
       it != std::sregex_iterator(); ++it) {
    out.insert((*it)[1].str());
  }
  return out;
}

TEST(Sarif, CatalogueAndDocsNameTheSameRules) {
  // The SARIF catalogue's entries are the `{"rule-id", ...` rows of
  // kRuleCatalogue; the docs give each rule a "#### `rule-id`" heading,
  // which its helpUri anchors to.
  const std::set<std::string> documented =
      matchesIn(STSYN_LINT_RULES_DOC, std::regex("\n#### `([a-z-]+)`"));
  const std::set<std::string> catalogued =
      matchesIn(STSYN_ANALYSIS_SOURCE_DIR "/diagnostics.cpp",
                std::regex("\n    \\{\"([a-z-]+)\","));
  EXPECT_GE(catalogued.size(), 30u);
  EXPECT_EQ(documented, catalogued);
  // Each id the linter emits has an entry, which renders with its
  // descriptions.
  const std::set<std::string> emitted =
      matchesIn(STSYN_ANALYSIS_SOURCE_DIR "/lint.cpp",
                std::regex("diags\\.add\\(\"([a-z-]+)\""));
  EXPECT_GE(emitted.size(), 15u);
  for (const std::string& id : emitted) {
    EXPECT_TRUE(catalogued.contains(id)) << id << " has no catalogue entry";
  }
  for (const std::string& id : catalogued) {
    Diagnostics d;
    d.add(id, Severity::Note, "m");
    EXPECT_NE(analysis::formatSarif(d, "f").find("\"shortDescription\""),
              std::string::npos)
        << id;
  }
}

// ---------------------------------------------------------------------------
// Builder positions flow into strict validation errors (satellite: the
// builder's validate() now reports source positions, not just names).
// ---------------------------------------------------------------------------

TEST(Positions, StrictParseErrorsCarrySourcePositions) {
  try {
    (void)lang::parseProtocol(R"(protocol p;
var x : 0..1;
var y : 0..1;
process P {
  reads x;
  writes x;
  action peek : y == 0 -> x := 1;
}
invariant : x == 0;
)");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("(line 7:3)"), std::string::npos)
        << e.what();
  }
}

TEST(Positions, ParserRecordsEntityLocations) {
  const protocol::Protocol p = lang::parseProtocol(R"(protocol p;
var x : 0..1;
process P {
  reads x;
  writes x;
  action a : x == 0 -> x := 1;
}
invariant : x == 0;
)");
  EXPECT_EQ(p.vars[0].loc.line, 2);
  EXPECT_EQ(p.vars[0].loc.column, 5);
  EXPECT_EQ(p.processes[0].loc.line, 3);
  EXPECT_EQ(p.processes[0].loc.column, 9);
  EXPECT_EQ(p.processes[0].actions[0].loc.line, 6);
  EXPECT_EQ(p.processes[0].actions[0].loc.column, 3);
  EXPECT_EQ(p.invariantLoc.line, 8);
  EXPECT_EQ(p.invariantLoc.column, 1);
}

// ---------------------------------------------------------------------------
// The shipped example protocols stay lint-clean (no errors, no warnings;
// notes are allowed — matching5_gouda_acharya's nondeterministic take
// actions are part of the published protocol).
// ---------------------------------------------------------------------------

class ExampleProtocols : public ::testing::TestWithParam<const char*> {};

TEST_P(ExampleProtocols, LintsClean) {
  const std::string path =
      std::string(STSYN_PROTOCOL_DIR) + "/" + GetParam();
  std::vector<protocol::ValidationIssue> issues;
  Diagnostics diags;
  const protocol::Protocol p = lang::parseProtocolFileLenient(path, issues);
  analysis::lintProtocol(p, issues, diags);
  EXPECT_FALSE(diags.failed(/*werror=*/true))
      << analysis::formatText(diags, path);
}

INSTANTIATE_TEST_SUITE_P(All, ExampleProtocols,
                         ::testing::Values("coloring5.stsyn",
                                           "matching5.stsyn",
                                           "matching5_gouda_acharya.stsyn",
                                           "token_ring4.stsyn",
                                           "two_ring.stsyn"));

}  // namespace
