// An independent, explicit-state implementation of the paper's synthesis
// algorithms (ComputeRanks + the three-pass heuristic + the greedy pass).
//
// This engine shares NO set, graph, or group machinery with the symbolic
// implementation in src/core — groups are enumerated concretely, ranks come
// from explicit BFS, cycles from Tarjan. Its purpose is cross-validation:
// on every instance small enough to enumerate, the test suite asserts that
// the two engines synthesize EXACTLY the same protocol (same transition
// set, same pass, same failure diagnosis). It is also a readable reference
// of the algorithm, free of BDD incidentals.
#pragma once

#include "explicitstate/semantics.hpp"

namespace stsyn::explicitstate {

enum class SynthFailure {
  None,
  NoStabilizingVersionExists,
  PreexistingCycleUnremovable,
  UnresolvedDeadlocks,
};

[[nodiscard]] const char* toString(SynthFailure f);

struct SynthOptions {
  /// Recovery schedule (permutation of processes); empty = identity.
  std::vector<std::size_t> schedule;
  int maxPass = 3;
  bool greedyCycleResolution = true;
};

struct SynthResult {
  bool success = false;
  SynthFailure failure = SynthFailure::None;

  /// delta_pss as a sorted, duplicate-free edge list. On failure this
  /// follows core::StrongResult's contract: the input relation when the
  /// run fails before the passes, the passes' partial result otherwise.
  std::vector<std::pair<StateId, StateId>> relation;

  /// Recovery edges added per process (sorted).
  std::vector<std::vector<std::pair<StateId, StateId>>> addedPerProcess;

  std::vector<StateId> remainingDeadlocks;

  /// rank[s] per state under p_im (kRankInfinity when unreachable).
  std::vector<std::int64_t> ranks;
  std::size_t maxRank = 0;

  int passCompleted = 0;
};

/// Runs the full heuristic explicitly. Deterministic; designed to agree
/// transition-for-transition with core::addStrongConvergence.
[[nodiscard]] SynthResult addStrongConvergenceExplicit(
    const StateSpace& space, const SynthOptions& options = {});

struct WeakSynthResult {
  bool success = false;
  /// delta_pim: the input protocol plus every C1-allowed candidate edge.
  std::vector<std::pair<StateId, StateId>> relation;
  std::vector<std::int64_t> ranks;  ///< per state; kRankInfinity possible
  std::vector<StateId> rankInfinityStates;
};

/// Theorem IV.1 explicitly: p_im plus the sound-and-complete weak
/// realizability verdict. Mirrors core::addWeakConvergence.
[[nodiscard]] WeakSynthResult addWeakConvergenceExplicit(
    const StateSpace& space);

}  // namespace stsyn::explicitstate
