// Exporting synthesis results as first-class protocols.
//
// toProtocol() reassembles a complete, self-contained Protocol from a
// synthesis result: the original guarded commands plus the extracted
// recovery actions. The result can be printed to .stsyn text
// (lang::printProtocol), re-parsed, re-verified or simulated — closing the
// loop between the synthesizer's symbolic output and every other part of
// the toolchain.
#pragma once

#include "extraction/actions.hpp"

namespace stsyn::extraction {

/// Converts a guard cover into a boolean expression over the given
/// readable variables (aligned with the cover's cube positions).
[[nodiscard]] protocol::E coverToExpr(const Cover& cover,
                                      std::span<const protocol::VarId> reads,
                                      std::span<const int> domains);

/// Builds the synthesized stabilizing protocol: the input protocol's
/// variables, topology, invariant, local predicates and actions, plus one
/// guarded command per extracted recovery action. Recovery labels are
/// "recovery0", "recovery1", ...
[[nodiscard]] protocol::Protocol toProtocol(
    const symbolic::SymbolicProtocol& sp,
    const std::vector<bdd::Bdd>& addedPerProcess,
    const std::string& nameSuffix = "_ss");

}  // namespace stsyn::extraction
