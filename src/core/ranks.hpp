// ComputeRanks (paper Figure 2): the approximation of strong convergence.
//
// Step 1 builds the intermediate protocol p_im: the input protocol plus the
// weakest group-closed set of transitions that start outside I and respect
// the read/write restrictions.
//
// Step 2 computes Rank[1..M] by backward breadth-first search from I over
// p_im: Rank[i] holds exactly the states whose shortest recovery path to I
// has length i. States not backward-reachable from I have rank infinity;
// by Theorem IV.1 their existence proves that NO stabilizing version of the
// protocol exists, and their absence makes p_im a weakly stabilizing
// version.
#pragma once

#include <vector>

#include "core/stats.hpp"
#include "symbolic/relations.hpp"

namespace stsyn::core {

struct Ranking {
  /// p_im: input transitions plus all candidate recovery groups that start
  /// in ¬I (whole groups only — constraint C1 holds by construction).
  bdd::Bdd pim;

  /// ranks[0] = I; ranks[i] = states at shortest-path distance i from I
  /// under p_im, for 1 <= i < ranks.size(). All non-empty except possibly
  /// ranks[0].
  std::vector<bdd::Bdd> ranks;

  /// States with rank infinity (no recovery path exists even in p_im).
  bdd::Bdd unreachable;

  /// M: the largest finite rank.
  [[nodiscard]] std::size_t maxRank() const { return ranks.size() - 1; }

  /// True iff every state has a finite rank — per Theorem IV.1 this is
  /// equivalent to "a (weakly) stabilizing version exists".
  [[nodiscard]] bool complete() const { return unreachable.isFalse(); }
};

/// Runs both steps. If `stats` is non-null, ranking time, M and the BFS
/// rounds (frontier_steps) are accumulated into it; the preimage products
/// are counted by `sp` (SymbolicProtocol::preimageOps). Each p_im part is
/// built from a state predicate, with no relational product. Step 2 is
/// symbolic::backwardBfs over p_im.
[[nodiscard]] Ranking computeRanks(const symbolic::SymbolicProtocol& sp,
                                   SynthesisStats* stats = nullptr);

}  // namespace stsyn::core
