// Symbolic transition-relation machinery for a protocol: per-process
// relations, the "weakest candidate" relations used by the synthesis
// heuristic, image/preimage operators, and the group-expansion operator
// E_j that closes a transition set under groupmates (Section II of the
// paper: transitions come in groups induced by read restrictions).
#pragma once

#include <vector>

#include "symbolic/compile.hpp"
#include "symbolic/encoding.hpp"

namespace stsyn::symbolic {

class SymbolicProtocol {
 public:
  explicit SymbolicProtocol(const Encoding& enc);

  [[nodiscard]] const Encoding& enc() const { return enc_; }
  [[nodiscard]] bdd::Manager& manager() const { return enc_.manager(); }
  [[nodiscard]] std::size_t processCount() const {
    return enc_.proto().processes.size();
  }

  /// The legitimate-state predicate I, compiled over current-state levels
  /// and restricted to valid codes.
  [[nodiscard]] bdd::Bdd invariant() const { return invariant_; }

  /// Transition relation of one process (union of its guarded commands),
  /// restricted to valid source codes.
  [[nodiscard]] bdd::Bdd processRelation(std::size_t j) const {
    return processRel_[j];
  }

  /// delta_p: union over processes.
  [[nodiscard]] bdd::Bdd protocolRelation() const { return protocolRel_; }

  /// frame_j = AND over v not writable by j of (x'_v = x_v): what any
  /// transition of process j must leave untouched.
  [[nodiscard]] bdd::Bdd frame(std::size_t j) const { return frame_[j]; }

  /// A_j: every transition process j could possibly take — valid source and
  /// target, respects frame_j, and is not a self-loop. The universe from
  /// which recovery transitions are drawn.
  [[nodiscard]] bdd::Bdd candidates(std::size_t j) const {
    return candidates_[j];
  }

  /// Group expansion E_j(T): the union of all transition groups of process
  /// j that intersect T. T must consist of process-j transitions (i.e.
  /// satisfy frame_j); the result again satisfies frame_j.
  [[nodiscard]] bdd::Bdd groupExpand(std::size_t j, const bdd::Bdd& t) const;

  // Fused group selection. Each primitive below returns exactly the BDD its
  // spelled-out form would, but in one relational product: the conjunction
  // it expands is never materialized. The second operand's written
  // variables W_j are read on their next-state bits inside the product
  // (Bdd::andExistsRenamed over the renaming interned per process at
  // construction), so no renamed copy of it is built either. The renaming
  // is monotone under any reorder because each (cur, next) bit pair sifts
  // as one block.

  /// E_j(t ∧ s) for a current-state predicate s. Same precondition on t as
  /// groupExpand.
  [[nodiscard]] bdd::Bdd groupExpand(std::size_t j, const bdd::Bdd& t,
                                     const bdd::Bdd& s) const;

  /// E_j(t ∧ s') — groups of t with a member ending in s. Precondition: t
  /// satisfies frame_j (asserted in debug builds), so that s' may be
  /// replaced by s with only W_j renamed.
  [[nodiscard]] bdd::Bdd groupExpandNext(std::size_t j, const bdd::Bdd& t,
                                         const bdd::Bdd& s) const;

  /// Every group of process j with a member in from x to:
  /// E_j(A_j ∧ from ∧ to') ∧ A_j, computed as
  /// (∃ unreadables. from ∧ to[W_j -> W_j']) ∧ A_j, the first factor in one
  /// renamed product.
  /// Precondition: from and to lie inside validCur (asserted in debug
  /// builds). Projecting out unreadables of an unfenced set would let
  /// invalid codes of one state set pair with valid codes of the other.
  [[nodiscard]] bdd::Bdd groupsBetween(std::size_t j, const bdd::Bdd& from,
                                       const bdd::Bdd& to) const;

  /// ∃ unreadables_j . s: the states process j cannot tell apart from some
  /// member of s. Since writes are a subset of reads and A_j keeps the
  /// unreadables unchanged, the groups of A_j with a member starting in s
  /// need no relational product:
  /// groupExpand(j, candidates(j), s) == candidates(j) ∧ hideUnreadables(j, s).
  /// Precondition: s is a current-state predicate inside validCur (asserted
  /// in debug builds); invalid unreadable codes would otherwise leak in.
  [[nodiscard]] bdd::Bdd hideUnreadables(std::size_t j,
                                         const bdd::Bdd& s) const;

  // The relational products every fixpoint steps through, each one pass of
  // the fused kernels Bdd::relNext/relPrev over the encoding's (cur, next)
  // pairs. Each polls the caller's cancellation token, so no fixpoint runs
  // more than one product past its deadline, and bumps
  // imageOps()/preimageOps(). T is the whole relation, never a per-process
  // part: those ran up to 15x slower (EXPERIMENTS.md, "One transition
  // relation"). The `within` overloads return the product ∧ within and
  // prune by it inside the kernel, before a branch is expanded.

  /// Successors of S under relation T: { s' : exists s in S, (s,s') in T },
  /// expressed over current-state levels.
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& t, const bdd::Bdd& s) const;
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& t, const bdd::Bdd& s,
                               const bdd::Bdd& within) const;

  /// Predecessors of S under T: { s : exists s' in S, (s,s') in T }.
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& t, const bdd::Bdd& s) const;
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& t, const bdd::Bdd& s,
                                  const bdd::Bdd& within) const;

  /// Products taken since construction (thread-confined like the manager).
  /// A run reports the difference over its own span.
  [[nodiscard]] std::size_t imageOps() const { return imageOps_; }
  [[nodiscard]] std::size_t preimageOps() const { return preimageOps_; }

  /// Restriction T | X: transitions of T that start and end in X
  /// (the projection delta_p|X of Section II).
  [[nodiscard]] bdd::Bdd restrictRel(const bdd::Bdd& t,
                                     const bdd::Bdd& x) const;

  /// Source states having at least one outgoing transition in T. Polls
  /// the cancellation token but is not counted.
  [[nodiscard]] bdd::Bdd sources(const bdd::Bdd& t) const;

  /// Target states having at least one incoming transition in T, over
  /// current-state levels. Neither polls nor counts.
  [[nodiscard]] bdd::Bdd targets(const bdd::Bdd& t) const;

  /// Deadlock states of relation T outside I: valid states in ¬I with no
  /// outgoing transition (Proposition II.1).
  [[nodiscard]] bdd::Bdd deadlocks(const bdd::Bdd& t) const;

  /// Lifts a current-state predicate to the same predicate on next-state
  /// levels. Products t ∧ s' take Encoding::andNext, which never builds s'.
  [[nodiscard]] bdd::Bdd onNext(const bdd::Bdd& s) const {
    return enc_.curToNext(s);
  }

  /// A canonical representative state of a non-empty predicate: the
  /// VarId-lexicographically smallest member. Independent of the BDD
  /// variable layout, so heuristic tie-breaks (SCC pivots, greedy pass
  /// picks) do not move when dynamic reordering sifts the levels.
  [[nodiscard]] std::vector<int> pickState(const bdd::Bdd& s) const;

  /// A canonical representative transition of a non-empty relation:
  /// lexicographically smallest source state, then smallest successor.
  /// Layout-independent, like pickState.
  [[nodiscard]] std::pair<std::vector<int>, std::vector<int>> pickTransition(
      const bdd::Bdd& rel) const;

 private:
  const Encoding& enc_;
  bdd::Bdd invariant_;
  std::vector<bdd::Bdd> processRel_;
  bdd::Bdd protocolRel_;
  std::vector<bdd::Bdd> frame_;
  std::vector<bdd::Bdd> candidates_;

  /// The closure E_j applies after quantifying: unreadables unchanged and
  /// both copies valid.
  [[nodiscard]] bdd::Bdd closeGroups(std::size_t j, const bdd::Bdd& t) const;

  // Per-process cubes/equalities for E_j: quantify both copies of the
  // unreadable variables, then re-impose "unreadables unchanged".
  std::vector<bdd::Bdd> unreadCube_;
  std::vector<bdd::Bdd> unreadUnchanged_;
  // Per-process renaming (cur W_j -> next W_j, unreadCube_[j]) of the
  // fused group selection.
  std::vector<bdd::RenamingId> writtenToNext_;

  mutable std::size_t imageOps_ = 0;
  mutable std::size_t preimageOps_ = 0;
};

/// A backward breadth-first search from a target set: the one BFS behind
/// ComputeRanks (over p_im), the weak-convergence check and the worst-case
/// recovery depth (over the checked relation).
struct BfsLayers {
  /// layers[0] is the target; layers[i] (i >= 1) holds the valid states
  /// whose shortest path into the target takes i transitions. Every layer
  /// after the first is non-empty. The search took layers.size() preimage
  /// rounds, the last one finding nothing new.
  std::vector<bdd::Bdd> layers;
  /// Valid states with no path into the target.
  bdd::Bdd unreachable;
};

/// Runs the BFS over relation `rel` from `target` (a set inside validCur).
/// Each round takes the preimage of the whole explored set, not of the
/// newest layer: both yield the same next layer, and the explored set is
/// the better shaped operand (docs/architecture.md, "Fixpoint operands").
[[nodiscard]] BfsLayers backwardBfs(const SymbolicProtocol& sp,
                                    const bdd::Bdd& rel,
                                    const bdd::Bdd& target);

/// Compiles one guarded command of process j into its transition relation:
/// guard(x) AND assigned next-values AND frame over unassigned variables,
/// restricted to valid current codes.
[[nodiscard]] bdd::Bdd actionRelation(const Encoding& enc, std::size_t proc,
                                      const protocol::Action& action);

}  // namespace stsyn::symbolic
