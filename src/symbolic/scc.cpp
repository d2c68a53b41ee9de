#include "symbolic/scc.hpp"

#include <cassert>
#include <utility>

#include "obs/trace.hpp"

namespace stsyn::symbolic {

using bdd::Bdd;

namespace {

/// One lockstep refinement step: returns the SCC of a pivot state inside V
/// together with the converged search set, growing the forward and backward
/// reachable sets in lockstep so the work is proportional to the smaller of
/// the two (the property that makes the algorithm's symbolic step count
/// linear up to a log factor).
struct Lockstep {
  Bdd scc;        // the pivot's SCC
  Bdd converged;  // the search set that converged first (closed within V)
};

Lockstep lockstep(const SymbolicProtocol& sp, const Bdd& rel, const Bdd& v,
                  const Bdd& pivot, std::size_t& steps) {
  // Both searches advance by the image of their newest layer, not of the
  // reached set as backwardBfs does. The swap is a measured loss here
  // (synth_scc, seed 22: bdd.unique_probes +9%, cache lookups +11%,
  // symbolic.scc_s up; EXPERIMENTS.md), and neutral in cycleCone. Each
  // product is confined to its search set inside the kernel (`within`);
  // only the already-reached states are subtracted afterwards.
  Bdd fwd = pivot;
  Bdd bwd = pivot;
  Bdd fFront = pivot;
  Bdd bFront = pivot;

  while (!fFront.isFalse() && !bFront.isFalse()) {
    fFront = sp.image(rel, fFront, v) & !fwd;
    fwd |= fFront;
    bFront = sp.preimage(rel, bFront, v) & !bwd;
    bwd |= bFront;
    steps += 2;
  }
  if (fFront.isFalse()) {
    // Forward search converged: the pivot's SCC lies inside fwd. Finish the
    // backward search but only within fwd.
    bwd &= fwd;
    bFront &= fwd;
    while (!bFront.isFalse()) {
      bFront = sp.preimage(rel, bFront, fwd) & !bwd;
      bwd |= bFront;
      ++steps;
    }
    return Lockstep{fwd & bwd, fwd};
  }
  fwd &= bwd;
  fFront &= bwd;
  while (!fFront.isFalse()) {
    fFront = sp.image(rel, fFront, bwd) & !fwd;
    fwd |= fFront;
    ++steps;
  }
  return Lockstep{fwd & bwd, bwd};
}

/// Does `scc` contain an internal transition? (Distinguishes a genuine
/// cycle from a trivial single-state component.)
bool hasInternalEdge(const SymbolicProtocol& sp, const Bdd& rel,
                     const Bdd& scc) {
  return !sp.enc().andNext(rel & scc, scc).isFalse();
}

/// Trims `domain` to its cycle core: repeatedly drop states with no
/// successor or no predecessor inside the remaining set. Every non-trivial
/// SCC survives, and on cycle-free graphs the core empties out in
/// O(longest chain) rounds. Each round is two fused products confined to
/// the shrinking set inside the kernel: the states with a successor in the
/// core, then those of them with a predecessor among them. The loop stops
/// at the greatest fixpoint, the same core as dropping both kinds of state
/// at once would give.
Bdd trimToCore(const SymbolicProtocol& sp, const Bdd& rel, const Bdd& domain,
               std::size_t& steps) {
  obs::Span span("trim_to_core", "scc");
  Bdd core = domain;
  std::size_t rounds = 0;
  while (!core.isFalse()) {
    const Bdd withSucc = sp.preimage(rel, core, core);
    const Bdd keep = sp.image(rel, withSucc, withSucc);
    ++rounds;
    if (keep == core) break;
    core = keep;
  }
  steps += 2 * rounds;
  span.arg("rounds", rounds);
  return core;
}

}  // namespace

SccResult nontrivialSccs(const SymbolicProtocol& sp, const Bdd& rel,
                         const Bdd& domain, const Bdd* liveEdges,
                         const SccVisitor& visit) {
  assert((liveEdges != nullptr || !visit) &&
         "a visitor needs live edges to shrink");
  obs::Span span("nontrivial_sccs", "scc");
  const bool seeded = liveEdges != nullptr;
  span.arg("seeded", seeded);
  SccResult result;
  std::size_t dropped = 0;
  Bdd live = seeded ? *liveEdges : Bdd();

  // An unseeded search trims its domain once, before its first pivot, and
  // its pieces are never trimmed again. A seeded one starts untrimmed: its
  // pivots already sit on live edges, and the trim costs more than the
  // trivial pivots it saves until one shows up. From the first trivial
  // pivot on, each untrimmed work set is trimmed against itself after its
  // live-edge check; its pieces are not trimmed again.
  struct WorkSet {
    Bdd states;
    bool trimmed;
  };
  std::vector<WorkSet> work{{domain, false}};
  bool trimOnDemand = !seeded;
  while (!work.empty()) {
    auto [v, trimmed] = std::move(work.back());
    work.pop_back();
    if (v.isFalse()) continue;
    assert(v.implies(sp.enc().validCur()) &&
           "SCC work set escaped the valid state codes");

    Bdd candidates = v;
    if (seeded) {
      // Pivots are the sources of the live edges inside v. Every needed
      // component holds a live edge, and SCCs never straddle work sets, so
      // an edge inside a component has both ends in one set: a set with no
      // live edge inside holds none of them.
      candidates = sp.preimage(live, v, v);
      if (candidates.isFalse()) {
        ++dropped;
        continue;
      }
    }
    // A set the trim empties of candidates is skipped, not counted as
    // dropped. Unseeded, the candidates are the trimmed set itself.
    if (trimOnDemand && !trimmed) {
      v = trimToCore(sp, rel, v, result.symbolicSteps);
      trimmed = true;
      candidates = seeded ? candidates & v : v;
      if (candidates.isFalse()) continue;
    }
    const Bdd pivot = sp.enc().stateBdd(sp.pickState(candidates));
    const Lockstep ls = lockstep(sp, rel, v, pivot, result.symbolicSteps);

    if (hasInternalEdge(sp, rel, ls.scc)) {
      result.components.push_back(ls.scc);
      if (visit) live = visit(ls.scc);
    } else {
      trimOnDemand = true;
    }
    // SCCs never straddle the converged set: recurse on both sides.
    work.push_back({ls.converged & !ls.scc, trimmed});
    work.push_back({v & !ls.converged, trimmed});
  }
  span.arg("components", result.components.size());
  span.arg("symbolic_steps", result.symbolicSteps);
  span.arg("dropped_worksets", dropped);
  return result;
}

bool hasCycle(const SymbolicProtocol& sp, const Bdd& rel, const Bdd& domain) {
  obs::Span span("has_cycle", "scc");
  // Self-loops are cycles.
  const Bdd diag = domain & sp.enc().diagonal();
  if (!(rel & diag).isFalse()) {
    span.arg("cyclic", true);
    return true;
  }
  // Otherwise a cycle exists iff the trimmed core is non-empty.
  std::size_t steps = 0;
  const bool cyclic = !trimToCore(sp, rel, domain, steps).isFalse();
  span.arg("cyclic", cyclic);
  span.arg("symbolic_steps", steps);
  return cyclic;
}

Bdd cycleCone(const SymbolicProtocol& sp, const Bdd& combined,
              const Bdd& delta, const Bdd& domain, std::size_t* steps) {
  const Bdd inDomain = sp.restrictRel(delta, domain);
  if (inDomain.isFalse()) return inDomain;  // delta never re-enters domain
  const Bdd sources = sp.sources(inDomain);
  const Bdd targets = sp.targets(inDomain);
  std::size_t rounds = 0;

  // Forward closure of the targets under base ∪ delta. Its product keeps
  // `& domain` outside the kernel: as `within` it cost coloring(20/30) 5%
  // more unique-table probes (EXPERIMENTS.md, "Fused image kernels").
  Bdd fwd = targets;
  Bdd frontier = targets;
  while (!frontier.isFalse()) {
    frontier = sp.image(combined, frontier) & domain & !fwd;
    fwd |= frontier;
    ++rounds;
  }
  // Backward closure of the sources it reaches, kept inside fwd. Empty
  // seeds mean no delta edge can close a cycle.
  Bdd cone = sources & fwd;
  frontier = cone;
  while (!frontier.isFalse()) {
    frontier = sp.preimage(combined, frontier, fwd) & !cone;
    cone |= frontier;
    ++rounds;
  }
  if (steps != nullptr) *steps += rounds;
  return cone;
}

}  // namespace stsyn::symbolic
