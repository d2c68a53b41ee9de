// BDD-free process symmetry orbits.
//
// The paper's read/write restrictions (the topology T_p) are pure static
// structure. This pass computes, without ever touching a Manager, the
// process symmetry orbits: canonical-form hashing of each process's
// guarded commands up to a variable renaming consistent with the local
// read/write structure (see computeOrbits for the exact equivalence and
// its limits).
//
// Consumers: synthesizePortfolio (orbit-based schedule deduplication) and
// the serve daemon's cache key (the orbit shapes as a semantic
// fingerprint of the protocol).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "protocol/protocol.hpp"

namespace stsyn::analysis {

/// Partition of the processes into local-shape equivalence classes.
///
/// Two processes land in one orbit when their guarded commands are
/// identical up to a renaming of their readable variables that preserves
/// each variable's local attributes (domain, reader/writer counts,
/// invariant membership) and the written/read-only split. This is a
/// NECESSARY condition for a protocol automorphism mapping one process to
/// the other, not a sufficient one — callers that prune work by orbit
/// (the portfolio) must keep a fallback path for the pruned instances.
/// Orbit ids are dense, assigned by first occurrence in process order, so
/// the representative of each orbit is its lowest-numbered member.
struct ProcessOrbits {
  std::vector<std::size_t> orbitOf;  ///< process id -> orbit id
  std::size_t orbitCount = 0;

  /// Canonical shape string per process (stable across runs; for tests
  /// and debugging — equality of shapes defines the orbits).
  std::vector<std::string> shapes;
};

[[nodiscard]] ProcessOrbits computeOrbits(const protocol::Protocol& p);

/// Orbit signature of a process permutation: the schedule with each
/// process replaced by its orbit id. Two schedules with equal signatures
/// walk locally-indistinguishable processes in the same order.
[[nodiscard]] std::vector<std::size_t> scheduleOrbitSignature(
    const ProcessOrbits& orbits, const std::vector<std::size_t>& schedule);

/// For each schedule, the index of the earliest schedule with the same
/// orbit signature (its own index when it is the representative). The
/// portfolio prunes non-representatives, running them only as a fallback.
[[nodiscard]] std::vector<std::size_t> scheduleRepresentatives(
    const ProcessOrbits& orbits,
    const std::vector<std::vector<std::size_t>>& schedules);

}  // namespace stsyn::analysis
