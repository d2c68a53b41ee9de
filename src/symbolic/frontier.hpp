// Image computation over one transition relation.
//
// Every fixpoint in the synthesis — ComputeRanks' backward BFS, the
// weak-convergence check, the heuristic passes, and symbolic SCC
// detection — is a sequence of image/preimage products against the
// protocol relation. ImageEngine holds that relation, counts the
// products, and gives every fixpoint one cancellation checkpoint.
//
// Products run against the whole relation, not per process: on every
// measured input the union shares more structure than the per-process
// parts, and per-process products ran up to 15x slower (EXPERIMENTS.md,
// "One transition relation").
#pragma once

#include <memory>
#include <utility>

#include "symbolic/relations.hpp"

namespace stsyn::symbolic {

/// Work counters of one engine (drained into SynthesisStats by callers).
struct ImageEngineStats {
  std::size_t imageCalls = 0;     ///< image() invocations
  std::size_t preimageCalls = 0;  ///< preimage() invocations
};

/// A transition relation prepared for repeated image/preimage products.
///
/// Engines are value types (cheap to copy relative to the fixpoints they
/// serve) and confined to the SymbolicProtocol's manager thread.
class ImageEngine {
 public:
  ImageEngine(const SymbolicProtocol& sp, bdd::Bdd rel);

  [[nodiscard]] const SymbolicProtocol& sp() const { return *sp_; }

  [[nodiscard]] const bdd::Bdd& relation() const { return rel_; }

  /// Successors of S: { s' : exists s in S, (s,s') in the relation }.
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& s) const;
  /// Successors of S intersected with `within`.
  [[nodiscard]] bdd::Bdd image(const bdd::Bdd& s, const bdd::Bdd& within) const;

  /// Predecessors of S.
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& s) const;
  [[nodiscard]] bdd::Bdd preimage(const bdd::Bdd& s,
                                  const bdd::Bdd& within) const;

  /// States with at least one outgoing / incoming transition.
  [[nodiscard]] bdd::Bdd sources() const;
  [[nodiscard]] bdd::Bdd targets() const;

  /// A new engine over the relation restricted to both endpoints in X
  /// (SymbolicProtocol::restrictRel), sharing this engine's counters.
  [[nodiscard]] ImageEngine restricted(const bdd::Bdd& x) const;

  /// Grows the relation by `delta` (rel |= delta) — the synthesis hot loop
  /// commits thousands of candidate batches this way.
  void grow(const bdd::Bdd& delta) { rel_ |= delta; }

  /// Work counters. Shared between an engine and every copy derived from
  /// it (restricted() trim copies in particular), so fixpoints that spin
  /// off restricted engines still account into the caller's engine.
  [[nodiscard]] const ImageEngineStats& stats() const { return *stats_; }

  /// Returns and clears the counters (drain-style accounting into
  /// SynthesisStats). Drains every copy sharing the counter.
  ImageEngineStats drainStats() const {
    return std::exchange(*stats_, ImageEngineStats{});
  }

 private:
  const SymbolicProtocol* sp_ = nullptr;
  bdd::Bdd rel_;
  std::shared_ptr<ImageEngineStats> stats_ =
      std::make_shared<ImageEngineStats>();
};

}  // namespace stsyn::symbolic
