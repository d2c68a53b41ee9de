// Symbolic detection of non-trivial strongly connected components.
//
// The paper's Identify_Resolve_Cycles routine uses the symbolic SCC
// algorithm of Gentilini et al. We implement the lockstep divide-and-conquer
// scheme (Bloem/Gabow/Somenzi) over a relation and SymbolicProtocol's
// counted, cancellable image/preimage products, with cycle-core trimming
// (up front, or on demand in a seeded search). A per-component visitor lets
// the heuristic stop the search once the components left cannot change its
// answer.
//
// Lockstep is the only backend. The heuristic runs it on a cycle cone
// (cycleCone below) with pivots seeded from the increment's edges: on
// those domains Gentilini's skeleton algorithm spent more symbolic steps
// and more time (EXPERIMENTS.md, "Seeded SCC decomposition"). Every result
// is cross-checked against an explicit Tarjan oracle in the test suite.
#pragma once

#include <functional>
#include <vector>

#include "symbolic/relations.hpp"

namespace stsyn::symbolic {

struct SccResult {
  /// Non-trivial SCCs (at least one internal transition: either two or more
  /// states, or a single state with a self-loop), as current-state
  /// predicates. Order is deterministic.
  std::vector<bdd::Bdd> components;

  /// Total symbolic steps (image/preimage rounds) spent — a complexity
  /// probe.
  std::size_t symbolicSteps = 0;
};

/// Called on each non-trivial SCC as lockstep finds it; returns the live
/// edges for the rest of the search.
using SccVisitor = std::function<bdd::Bdd(const bdd::Bdd& component)>;

/// Computes the non-trivial SCCs of `rel` restricted to the state set
/// `domain` (both endpoints inside `domain`).
///
/// Without `liveEdges` the domain is trimmed to its cycle core once, up
/// front, and every work set is searched.
///
/// With `liveEdges` (a relation), the search is seeded: each work set V
/// draws its lockstep pivots from the sources of the live edges with both
/// ends in V, and a set with no such edge is dropped without a search
/// (`dropped_worksets` on the trace span; a set whose live edges the
/// on-demand trim below removes is skipped too but not counted, as an
/// empty trimmed core is not counted unseeded). Precondition: every non-trivial
/// SCC of rel|domain the caller needs holds a live edge — a component
/// without one is silently missed. The heuristic's passes satisfy it with
/// the increment's edges inside the cycle cone, since their base relation
/// is acyclic and so every cycle takes an increment edge. A seeded search
/// starts untrimmed; once a pivot's SCC proves trivial, each work set not
/// yet trimmed is trimmed against itself after its live-edge check and
/// before its pivot, and its pieces are not trimmed again.
///
/// With `visit` (seeded calls only), each component is handed to it as it
/// is found, and its return value replaces the live edges from then on.
/// The visitor may shrink them to the components it still needs: the
/// components it drops are never searched, and `components` then holds
/// the visited ones only. The passes return the edges of the groups that
/// survive the removal, so detection stops once every remaining component
/// could only hit groups already removed.
[[nodiscard]] SccResult nontrivialSccs(const SymbolicProtocol& sp,
                                       const bdd::Bdd& rel,
                                       const bdd::Bdd& domain,
                                       const bdd::Bdd* liveEdges = nullptr,
                                       const SccVisitor& visit = {});

/// True iff `rel` restricted to `domain` contains a cycle — equivalent to
/// nontrivialSccs(...).components being non-empty but cheaper when the
/// caller only needs a yes/no answer.
[[nodiscard]] bool hasCycle(const SymbolicProtocol& sp, const bdd::Bdd& rel,
                            const bdd::Bdd& domain);

/// The cycle cone of an increment delta of `combined` = base ∪ delta.
/// Precondition: (combined \ delta) restricted to `domain` is acyclic, so
/// every cycle of combined|domain passes through a delta edge and lies
/// inside FW*(targets(delta)) ∩ BW*(sources(delta)) (both closures taken
/// within `domain`). Returns that intersection: a union of whole SCCs of
/// combined|domain holding every non-trivial one, so nontrivialSccs and
/// hasCycle over the cone answer exactly as they would over `domain`.
/// The forward closure is computed first; when it never meets a delta
/// source the result is empty — the increment is CERTAINLY acyclic, the
/// fast path that lets the synthesis of locally-correctable protocols
/// (coloring) skip SCC detection entirely, mirroring the paper's
/// observation that coloring never forms SCCs. `steps` accumulates the
/// image/preimage rounds spent.
[[nodiscard]] bdd::Bdd cycleCone(const SymbolicProtocol& sp,
                                 const bdd::Bdd& combined,
                                 const bdd::Bdd& delta,
                                 const bdd::Bdd& domain,
                                 std::size_t* steps = nullptr);

}  // namespace stsyn::symbolic
