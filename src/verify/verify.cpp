#include "verify/verify.hpp"

#include <utility>

namespace stsyn::verify {

using bdd::Bdd;
using symbolic::SymbolicProtocol;

bool isClosed(const SymbolicProtocol& sp, const Bdd& rel, const Bdd& x) {
  // A transition violating closure starts in X and ends outside X.
  const Bdd escape = sp.enc().andNext(rel & x, sp.enc().validCur() & !x);
  return escape.isFalse();
}

bool agreesInsideInvariant(const SymbolicProtocol& sp, const Bdd& original,
                           const Bdd& synthesized) {
  const Bdd inv = sp.invariant();
  return sp.restrictRel(original, inv) == sp.restrictRel(synthesized, inv);
}

Report check(const SymbolicProtocol& sp, const Bdd& rel) {
  Report r;
  const Bdd valid = sp.enc().validCur();
  const Bdd inv = sp.invariant();
  const Bdd notI = valid & !inv;

  r.closed = isClosed(sp, rel, inv);

  r.deadlocks = sp.deadlocks(rel);
  r.deadlockFree = r.deadlocks.isFalse();

  // The SCC search runs only outside AF(I), the least fixpoint
  // must = I ∪ (¬I ∧ sources(rel) ∧ ¬preimage(rel, ¬must)) of states whose
  // every path reaches I. Every non-trivial SCC of rel|¬I, and the whole
  // trimmed core of ¬I, lies in the rest, so trimming the rest reaches the
  // same core and lockstep returns the same components in the same order;
  // on a convergent relation the rest is empty and the search is skipped.
  const Bdd stepsOut = notI & sp.sources(rel);
  Bdd must = inv;
  for (;;) {
    const Bdd next = inv | (stepsOut & !sp.preimage(rel, valid & !must));
    if (next == must) break;
    must = next;
  }
  const Bdd rest = valid & !must;
  if (!rest.isFalse()) {
    symbolic::SccResult sccs =
        symbolic::nontrivialSccs(sp, sp.restrictRel(rel, rest), rest);
    r.cycles = std::move(sccs.components);
    r.sccDetectionCalls = 1;
    r.sccSymbolicSteps = sccs.symbolicSteps;
  }
  r.cycleFree = r.cycles.empty();

  // Weak convergence: every valid state is backward-reachable from I.
  const symbolic::BfsLayers bfs = symbolic::backwardBfs(sp, rel, inv);
  r.weaklyUnreachable = bfs.unreachable;
  r.weaklyConverges = r.weaklyUnreachable.isFalse();
  if (r.weaklyConverges) r.recoveryDepth = bfs.layers.size() - 1;
  return r;
}

std::vector<Step> extractCycle(const SymbolicProtocol& sp, const Bdd& rel,
                               const Bdd& component,
                               const std::vector<Bdd>& perProcess) {
  // Walk forward inside the component until a state repeats, then cut the
  // walk down to the loop.
  const Bdd inC = sp.restrictRel(rel, component);
  std::vector<std::vector<int>> walk;
  std::vector<int> cur = sp.pickState(component);
  for (;;) {
    for (std::size_t i = 0; i < walk.size(); ++i) {
      if (walk[i] == cur) {
        // Loop found: walk[i..] plus the closing state.
        std::vector<Step> cycle;
        for (std::size_t k = i; k < walk.size(); ++k) {
          cycle.push_back(Step{walk[k], SIZE_MAX});
        }
        cycle.push_back(Step{cur, SIZE_MAX});
        // Attribute each step to a process.
        for (std::size_t k = 0; k + 1 < cycle.size(); ++k) {
          const Bdd edge =
              sp.enc().andNext(sp.enc().stateBdd(cycle[k].state),
                               sp.enc().stateBdd(cycle[k + 1].state));
          for (std::size_t j = 0; j < perProcess.size(); ++j) {
            if (!(perProcess[j] & edge).isFalse()) {
              cycle[k].process = j;
              break;
            }
          }
        }
        return cycle;
      }
    }
    walk.push_back(cur);
    const Bdd succ = sp.image(inC, sp.enc().stateBdd(cur));
    // Every state of a non-trivial SCC has a successor inside it.
    cur = sp.pickState(succ);
  }
}

}  // namespace stsyn::verify
