#include "symbolic/relations.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "util/cancel.hpp"

namespace stsyn::symbolic {

using bdd::Bdd;
using bdd::Var;
using protocol::VarId;

Bdd actionRelation(const Encoding& enc, std::size_t proc,
                   const protocol::Action& action) {
  const protocol::Protocol& p = enc.proto();
  const protocol::Process& pr = p.processes.at(proc);

  Bdd rel = compileBool(*action.guard, enc, StateCopy::Current);
  std::vector<bool> assigned(p.vars.size(), false);
  for (const protocol::Assignment& asg : action.assigns) {
    assigned[asg.var] = true;
    // x'_v takes the value of the right-hand side, evaluated on the
    // current state (all assignments in one action are parallel).
    Bdd target = enc.manager().falseBdd();
    for (const ValueCase& c : compileInt(*asg.value, enc, StateCopy::Current)) {
      if (c.value < 0 || c.value >= p.vars[asg.var].domain) {
        // A right-hand side may range outside the domain only under
        // conditions where the guard is false; intersecting with the guard
        // later would mask a modelling bug, so reject loudly here.
        throw std::invalid_argument(
            "action " + pr.name + "/" + action.label +
            ": assignment can produce a value outside the target domain; "
            "apply .mod(domain) to the right-hand side");
      }
      target |= c.when & enc.nextValue(asg.var, static_cast<int>(c.value));
    }
    rel &= target;
  }
  for (VarId v = 0; v < p.vars.size(); ++v) {
    if (!assigned[v]) rel &= enc.unchanged(v);
  }
  return rel & enc.validCur();
}

SymbolicProtocol::SymbolicProtocol(const Encoding& enc) : enc_(enc) {
  const protocol::Protocol& p = enc.proto();
  bdd::Manager& m = enc.manager();

  invariant_ =
      compileBool(*p.invariant, enc, StateCopy::Current) & enc.validCur();

  protocolRel_ = m.falseBdd();
  processRel_.reserve(p.processes.size());
  frame_.reserve(p.processes.size());
  candidates_.reserve(p.processes.size());
  unreadCube_.reserve(p.processes.size());
  unreadUnchanged_.reserve(p.processes.size());
  writtenToNext_.reserve(p.processes.size());

  for (std::size_t j = 0; j < p.processes.size(); ++j) {
    Bdd rel = m.falseBdd();
    for (const protocol::Action& a : p.processes[j].actions) {
      rel |= actionRelation(enc, j, a);
    }
    processRel_.push_back(rel);
    protocolRel_ |= rel;

    Bdd frame = m.trueBdd();
    for (VarId v = 0; v < p.vars.size(); ++v) {
      if (!p.processes[j].canWrite(v)) frame &= enc.unchanged(v);
    }
    frame_.push_back(frame);
    candidates_.push_back(frame & enc.validCur() & enc.validNext() &
                          !enc.diagonal());

    std::vector<Var> levels;
    Bdd unreadEq = m.trueBdd();
    for (VarId v : p.unreadableOf(j)) {
      levels.insert(levels.end(), enc.curLevels(v).begin(),
                    enc.curLevels(v).end());
      levels.insert(levels.end(), enc.nextLevels(v).begin(),
                    enc.nextLevels(v).end());
      unreadEq &= enc.unchanged(v);
    }
    std::sort(levels.begin(), levels.end());
    unreadCube_.push_back(m.cube(levels));
    unreadUnchanged_.push_back(unreadEq);

    std::vector<Var> perm(m.varCount());
    std::iota(perm.begin(), perm.end(), Var{0});
    for (const VarId v : p.processes[j].writes) {
      const std::vector<Var>& cur = enc.curLevels(v);
      const std::vector<Var>& next = enc.nextLevels(v);
      for (std::size_t k = 0; k < cur.size(); ++k) perm[cur[k]] = next[k];
    }
    writtenToNext_.push_back(m.internRenaming(perm, unreadCube_[j]));
  }
}

Bdd SymbolicProtocol::groupExpand(std::size_t j, const Bdd& t) const {
  // Two transitions are groupmates of process j iff they agree on the
  // readable variables in both source and target (and each keeps the
  // unreadables unchanged). Projecting out both copies of the unreadables
  // and re-imposing "unreadables unchanged" therefore yields exactly the
  // union of the groups intersecting t.
  return closeGroups(j, t.exists(unreadCube_[j]));
}

Bdd SymbolicProtocol::groupExpand(std::size_t j, const Bdd& t,
                                  const Bdd& s) const {
  return closeGroups(j, t.andExists(s, unreadCube_[j]));
}

Bdd SymbolicProtocol::groupExpandNext(std::size_t j, const Bdd& t,
                                      const Bdd& s) const {
  // Under frame_j every unwritten next copy equals its current copy, so
  // t ∧ s' = t ∧ s[W_j -> W_j'].
  assert(t.implies(frame_[j]) &&
         "groupExpandNext: t violates the process frame");
  return closeGroups(j, t.andExistsRenamed(s, writtenToNext_[j]));
}

Bdd SymbolicProtocol::groupsBetween(std::size_t j, const Bdd& from,
                                    const Bdd& to) const {
  // Within A_j a transition from x = (w, r, u) leads to x' = (w', r, u), so
  // A_j ∧ from ∧ to' = A_j ∧ from(w, r, u) ∧ to(w', r, u). Quantifying the
  // unreadables u and re-imposing A_j (which holds "unreadables unchanged"
  // and the valid fences) is then E_j(A_j ∧ from ∧ to') ∧ A_j. The next
  // copies of the unreadables are outside the product's support, so the
  // full unreadable cube quantifies exactly the current ones.
  assert(from.implies(enc_.validCur()) && to.implies(enc_.validCur()) &&
         "groupsBetween: from/to must lie inside validCur");
  return from.andExistsRenamed(to, writtenToNext_[j]) & candidates_[j];
}

Bdd SymbolicProtocol::hideUnreadables(std::size_t j, const Bdd& s) const {
  // s has no next-state support, so the cube's next copies are inert.
  assert(s.implies(enc_.validCur()) &&
         "hideUnreadables: s must lie inside validCur");
  return s.exists(unreadCube_[j]);
}

Bdd SymbolicProtocol::closeGroups(std::size_t j, const Bdd& t) const {
  return t & unreadUnchanged_[j] & enc_.validCur() & enc_.validNext();
}

Bdd SymbolicProtocol::image(const Bdd& t, const Bdd& s) const {
  return image(t, s, manager().trueBdd());
}

Bdd SymbolicProtocol::image(const Bdd& t, const Bdd& s,
                            const Bdd& within) const {
  util::checkCancellation();
  ++imageOps_;
  return s.relNext(t, within);
}

Bdd SymbolicProtocol::preimage(const Bdd& t, const Bdd& s) const {
  return preimage(t, s, manager().trueBdd());
}

Bdd SymbolicProtocol::preimage(const Bdd& t, const Bdd& s,
                               const Bdd& within) const {
  util::checkCancellation();
  ++preimageOps_;
  return t.relPrev(s, within);
}

Bdd SymbolicProtocol::restrictRel(const Bdd& t, const Bdd& x) const {
  // Fence X to the valid codes first. Over non-power-of-two domains an
  // unfenced X (anything built with a negation, e.g. ¬I) contains invalid
  // codes, and without the fence transitions touching them would survive
  // the restriction.
  const Bdd inside = x & enc_.validCur();
  return enc_.andNext(t & inside, inside);
}

Bdd SymbolicProtocol::sources(const Bdd& t) const {
  util::checkCancellation();
  return t.exists(enc_.nextCube());
}

Bdd SymbolicProtocol::targets(const Bdd& t) const {
  const Bdd all = manager().trueBdd();
  return all.relNext(t, all);
}

Bdd SymbolicProtocol::deadlocks(const Bdd& t) const {
  return enc_.validCur() & !invariant_ & !sources(t);
}

std::vector<int> SymbolicProtocol::pickState(const Bdd& s) const {
  if (s.isFalse()) {
    throw std::invalid_argument("pickState on an empty state predicate");
  }
  // Canonical pick: the VarId-lexicographically smallest member, found by
  // successively restricting to the smallest feasible value per variable.
  // Unlike a walk down the diagram (which depends on the level order), this
  // choice is identical under every variable layout, so SCC pivots and the
  // greedy pass's picks do not drift when sifting reorders the levels.
  Bdd rest = s;
  std::vector<int> state(enc_.proto().vars.size());
  for (protocol::VarId v = 0; v < enc_.proto().vars.size(); ++v) {
    int chosen = -1;
    for (int val = 0; val < enc_.proto().vars[v].domain; ++val) {
      const Bdd next = rest & enc_.curValue(v, val);
      if (!next.isFalse()) {
        chosen = val;
        rest = next;
        break;
      }
    }
    if (chosen < 0) {
      throw std::logic_error(
          "pickState: predicate excludes every domain value "
          "(not within validCur)");
    }
    state[v] = chosen;
  }
  return state;
}

std::pair<std::vector<int>, std::vector<int>> SymbolicProtocol::pickTransition(
    const Bdd& rel) const {
  if (rel.isFalse()) {
    throw std::invalid_argument("pickTransition on an empty relation");
  }
  // Canonical pick, as in pickState: smallest current state first (all
  // variables), then the smallest successor — layout-independent.
  Bdd rest = rel;
  const std::size_t n = enc_.proto().vars.size();
  std::vector<int> cur(n);
  std::vector<int> nxt(n);
  const auto choose = [&](protocol::VarId v, bool nextCopy) {
    for (int val = 0; val < enc_.proto().vars[v].domain; ++val) {
      const Bdd next =
          rest & (nextCopy ? enc_.nextValue(v, val) : enc_.curValue(v, val));
      if (!next.isFalse()) {
        rest = next;
        return val;
      }
    }
    throw std::logic_error(
        "pickTransition: relation excludes every domain value "
        "(not within valid codes)");
  };
  for (protocol::VarId v = 0; v < n; ++v) cur[v] = choose(v, false);
  for (protocol::VarId v = 0; v < n; ++v) nxt[v] = choose(v, true);
  return {cur, nxt};
}

BfsLayers backwardBfs(const SymbolicProtocol& sp, const Bdd& rel,
                      const Bdd& target) {
  const Bdd valid = sp.enc().validCur();
  BfsLayers out;
  out.layers.push_back(target);
  Bdd explored = target;
  for (;;) {
    const Bdd layer = sp.preimage(rel, explored, valid) & !explored;
    if (layer.isFalse()) break;
    out.layers.push_back(layer);
    explored |= layer;
  }
  out.unreachable = valid & !explored;
  return out;
}

}  // namespace stsyn::symbolic
