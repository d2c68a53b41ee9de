// The protocol linter: a static-analysis pass over parsed .stsyn protocols.
//
// Rules come in two tiers (see docs/lint_rules.md for the catalogue):
//
//  - Syntactic/AST rules inspect the Protocol structure directly: the
//    builder's well-formedness violations (read/write restrictions, type
//    errors), invariants over variables no process reads, constants and
//    assignments outside a variable's declared domain, duplicate action
//    labels, and dead variables.
//
//  - Symbolic rules compile the protocol with the BDD layer and decide
//    semantic questions exactly over the declared domains: guards that can
//    never fire or always hold, assignments that never change their
//    target, actions that are the identity wherever enabled, overlapping
//    nondeterministic actions, and empty or trivially-true invariants.
//
// The symbolic tier only runs when the AST tier found no errors: an
// ill-formed protocol cannot be compiled.
#pragma once

#include <string_view>

#include "analysis/diagnostics.hpp"
#include "protocol/protocol.hpp"

namespace stsyn::analysis {

/// Lints a protocol that may still contain well-formedness violations;
/// `issues` are the builder's validation findings (from
/// ProtocolBuilder::buildLenient / parseProtocolLenient), reported first
/// as errors.
void lintProtocol(const protocol::Protocol& proto,
                  const std::vector<protocol::ValidationIssue>& issues,
                  Diagnostics& diags);

/// Convenience entry point for .stsyn text: parses leniently, then lints.
/// Lexical/syntax errors are reported as a single "parse-error" diagnostic
/// instead of being thrown. Returns true when the source parsed.
bool lintSource(std::string_view source, Diagnostics& diags);

}  // namespace stsyn::analysis
