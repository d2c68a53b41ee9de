// Symbolic verification of closure, convergence, and self-stabilization
// (Section II definitions, decided via Proposition II.1), plus the
// interference check of Problem III.1 (delta_pss|I = delta_p|I).
//
// Synthesized protocols are correct by construction; this module provides
// the independent re-check the test suite runs on every synthesis output,
// and the analysis used to expose flaws in manually designed protocols
// (Section VI-A's Gouda–Acharya maximal matching cycle).
#pragma once

#include <vector>

#include "symbolic/relations.hpp"
#include "symbolic/scc.hpp"

namespace stsyn::verify {

struct Report {
  bool closed = false;        ///< I is closed in the relation
  bool deadlockFree = false;  ///< no deadlock states in ¬I
  bool cycleFree = false;     ///< no non-progress cycle in rel|¬I
  bool weaklyConverges = false;

  [[nodiscard]] bool stronglyConverges() const {
    return deadlockFree && cycleFree;
  }
  [[nodiscard]] bool stronglyStabilizing() const {
    return closed && stronglyConverges();
  }
  [[nodiscard]] bool weaklyStabilizing() const {
    return closed && weaklyConverges;
  }

  bdd::Bdd deadlocks;             ///< witnesses (empty iff deadlockFree)
  bdd::Bdd weaklyUnreachable;     ///< states with no path to I
  std::vector<bdd::Bdd> cycles;   ///< non-trivial SCCs of rel|¬I
  /// Worst-case recovery distance: the maximum over states of the shortest
  /// path length to I, a quality metric of a stabilizing relation.
  /// SIZE_MAX when some state cannot reach I.
  std::size_t recoveryDepth = SIZE_MAX;

  /// SCC searches run (1 when some state outside I can avoid reaching I,
  /// else 0) and the symbolic steps they spent, for the stats object.
  std::size_t sccDetectionCalls = 0;
  std::size_t sccSymbolicSteps = 0;
};

/// Full verification of `rel` against sp's invariant. Weak convergence and
/// the recovery depth come from one symbolic::backwardBfs from I.
[[nodiscard]] Report check(const symbolic::SymbolicProtocol& sp,
                           const bdd::Bdd& rel);

/// Is the state predicate X closed in `rel`? (Every transition from X ends
/// in X.)
[[nodiscard]] bool isClosed(const symbolic::SymbolicProtocol& sp,
                            const bdd::Bdd& rel, const bdd::Bdd& x);

/// Problem III.1 output constraint (2): the two relations agree inside I.
[[nodiscard]] bool agreesInsideInvariant(const symbolic::SymbolicProtocol& sp,
                                         const bdd::Bdd& original,
                                         const bdd::Bdd& synthesized);

/// A concrete execution step of a counterexample.
struct Step {
  std::vector<int> state;
  /// Index of a process able to take this step (first match), or SIZE_MAX
  /// when the transition belongs to none of the provided relations.
  std::size_t process = SIZE_MAX;
};

/// Extracts a concrete non-progress cycle from a non-trivial SCC: a state
/// sequence s0, s1, ..., sk with sk = s0, each step inside the component.
/// `perProcess` attributes steps to processes (pass the per-process
/// relations of the protocol being analysed).
[[nodiscard]] std::vector<Step> extractCycle(
    const symbolic::SymbolicProtocol& sp, const bdd::Bdd& rel,
    const bdd::Bdd& component, const std::vector<bdd::Bdd>& perProcess);

}  // namespace stsyn::verify
