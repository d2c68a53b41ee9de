// Failure diagnosis: the paper's lightweight method is pitched as giving
// designers INSIGHT — when synthesis fails, the valuable output is *why*.
// This module explains a StrongResult: per remaining deadlock state, which
// processes could act at all, which are blocked by constraint C1 (every
// candidate group has a groupmate starting in I) and which lost all their
// groups to cycle resolution; plus whether the instance is realizable at
// all (Theorem IV.1).
#pragma once

#include <string>

#include "core/heuristic.hpp"

namespace stsyn::core {

/// Why a particular process cannot supply recovery from a given state.
enum class ProcessBlock {
  CanAct,          ///< has a C1-allowed candidate group from this state
  NoCandidates,    ///< cannot change anything (no writable variables move)
  BlockedByC1,     ///< every group has a groupmate starting in I
  BlockedByCycles, ///< C1-allowed groups exist but all close cycles with pss
};

[[nodiscard]] const char* toString(ProcessBlock b);

struct DeadlockDiagnosis {
  std::vector<int> state;
  /// Verdict per process (indexed by process id).
  std::vector<ProcessBlock> processes;
};

struct Diagnosis {
  Failure failure = Failure::None;

  /// For UnresolvedDeadlocks: per-deadlock breakdown (up to `maxWitnesses`).
  std::vector<DeadlockDiagnosis> deadlocks;
  double remainingDeadlockCount = 0;

  /// For NoStabilizingVersionExists: one rank-infinity witness.
  std::vector<int> unreachableWitness;

  [[nodiscard]] std::string summary(const protocol::Protocol& proto) const;
};

/// Explains a (typically failed) synthesis result. Cheap for successes.
[[nodiscard]] Diagnosis diagnose(const symbolic::SymbolicProtocol& sp,
                                 const StrongResult& result,
                                 std::size_t maxWitnesses = 5);

}  // namespace stsyn::core
