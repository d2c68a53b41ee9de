// Binary encoding of protocol states into BDD variables.
//
// Each protocol variable of domain size d occupies ceil(log2 d) boolean
// variables, twice: a current-state copy x and a next-state copy x'. The
// copies are interleaved bit-by-bit and variables are laid out in
// declaration order (the paper's ring protocols declare their variables
// in ring order, which is exactly the locality the BDDs need). Dynamic
// reordering (grouped sifting, STSYN_REORDER=1) is the one way to improve
// that layout, as it is CUDD's in the paper's STSyn.
//
// Invalid binary codes (values >= d) are excluded by validCur()/validNext();
// every state predicate and transition relation in this repository is kept
// inside those predicates.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "bdd/bdd.hpp"
#include "protocol/protocol.hpp"

namespace stsyn::symbolic {

class Encoding {
 public:
  /// Builds the encoding and allocates a dedicated BDD manager. The
  /// protocol is copied (cheap: expression trees are shared), so
  /// temporaries are safe to pass.
  explicit Encoding(protocol::Protocol proto);

  [[nodiscard]] bdd::Manager& manager() const { return *mgr_; }
  [[nodiscard]] const protocol::Protocol& proto() const { return proto_; }

  /// Number of bits used by protocol variable v.
  [[nodiscard]] int bitsOf(protocol::VarId v) const { return bits_[v]; }

  /// BDD levels of variable v's current / next copy (ascending).
  [[nodiscard]] const std::vector<bdd::Var>& curLevels(protocol::VarId v) const {
    return curLevels_[v];
  }
  [[nodiscard]] const std::vector<bdd::Var>& nextLevels(
      protocol::VarId v) const {
    return nextLevels_[v];
  }

  /// The interleaved (current, next) bit pairs, one per encoded bit, in
  /// initial level order. Registered with the manager as atomic reorder groups:
  /// dynamic reordering moves a pair as one block, so the cur->next
  /// renamings stay order-preserving under any reorder, and the same
  /// registration gives Bdd::relNext/relPrev the pairs they step over.
  [[nodiscard]] const std::vector<std::pair<bdd::Var, bdd::Var>>& bitPairs()
      const {
    return bitPairs_;
  }

  /// All current levels of the whole state, ascending.
  [[nodiscard]] const std::vector<bdd::Var>& allCurLevels() const {
    return allCur_;
  }

  /// Indicator predicates: variable v equals `value` in the current / next
  /// state. Cached; cheap to call repeatedly.
  [[nodiscard]] bdd::Bdd curValue(protocol::VarId v, int value) const;
  [[nodiscard]] bdd::Bdd nextValue(protocol::VarId v, int value) const;

  /// The set of valid current / next codes.
  [[nodiscard]] bdd::Bdd validCur() const { return validCur_; }
  [[nodiscard]] bdd::Bdd validNext() const { return validNext_; }

  /// Quantification cube of the next-state copy.
  [[nodiscard]] bdd::Bdd nextCube() const { return nextCube_; }

  /// x'_v = x_v for a single variable (all its bits).
  [[nodiscard]] bdd::Bdd unchanged(protocol::VarId v) const {
    return unchanged_[v];
  }

  /// The diagonal: every variable unchanged (self-loop transitions).
  [[nodiscard]] bdd::Bdd diagonal() const { return diagonal_; }

  /// t ∧ s' for a predicate s over current-state levels: s is read on the
  /// next-state levels inside the product (Bdd::andExistsRenamed), so s'
  /// is never built. (Images need no renaming: Bdd::relNext builds them on
  /// the current levels.)
  [[nodiscard]] bdd::Bdd andNext(const bdd::Bdd& t, const bdd::Bdd& s) const;

  /// Renames a predicate over current-state levels to next-state levels:
  /// andNext(true, f).
  [[nodiscard]] bdd::Bdd curToNext(const bdd::Bdd& f) const;

  /// The BDD of a single concrete state (current-state copy).
  [[nodiscard]] bdd::Bdd stateBdd(std::span<const int> state) const;

  /// Decodes a 0/1 assignment over allCurLevels() (aligned with that
  /// vector) into a concrete state.
  [[nodiscard]] std::vector<int> decodeCur(std::span<const char> bits) const;
  /// Decodes a 0/1 assignment over allCur + allNext interleaved order
  /// (aligned with curNextLevels()) into (state, nextState).
  [[nodiscard]] std::pair<std::vector<int>, std::vector<int>> decodePair(
      std::span<const char> bits) const;

  /// All levels (cur and next), ascending — the enumeration order for
  /// relation decoding.
  [[nodiscard]] const std::vector<bdd::Var>& curNextLevels() const {
    return allLevels_;
  }

  /// Number of states in a current-state predicate (counted within the
  /// valid codes; the caller must keep S inside validCur()).
  [[nodiscard]] double countStates(const bdd::Bdd& s) const;

 private:
  protocol::Protocol proto_;
  std::unique_ptr<bdd::Manager> mgr_;

  std::vector<int> bits_;
  std::vector<std::vector<bdd::Var>> curLevels_;
  std::vector<std::vector<bdd::Var>> nextLevels_;
  std::vector<std::pair<bdd::Var, bdd::Var>> bitPairs_;
  std::vector<bdd::Var> allCur_;
  std::vector<bdd::Var> allNext_;
  std::vector<bdd::Var> allLevels_;
  bdd::RenamingId curToNext_ = 0;  // every current bit -> its next bit

  // Cached indicators: indexed [var][value].
  mutable std::vector<std::vector<bdd::Bdd>> curValue_;
  mutable std::vector<std::vector<bdd::Bdd>> nextValue_;

  std::vector<bdd::Bdd> unchanged_;
  bdd::Bdd validCur_;
  bdd::Bdd validNext_;
  bdd::Bdd nextCube_;
  bdd::Bdd diagonal_;
};

}  // namespace stsyn::symbolic
