// Recursive BDD operation kernels over complement edges: the unified And
// kernel (serving And/Or/Nand/Nor through De Morgan), Xor, existential
// quantification, the AndExists relational product, the fused image
// kernels relNext/relPrev, the renamed relational product (which also
// serves order-preserving renaming), and the non-materializing
// implication test.
//
// Negation is NOT a kernel any more: with complement edges it is an O(1)
// bit flip on the handle (operator! below), allocates nothing, and needs
// no cache. The kernels exploit the structural visibility of negation —
// f ∧ ¬f = false, f ∨ ¬f = true — as terminal rules, and sign-normalize
// Xor's operands so all sign combinations of an operand pair share one
// cache entry.
//
// All kernels share the direct-mapped operation cache. Kernels never
// trigger garbage collection (see maybeGc() in manager.cpp); the public
// wrappers run it before starting.
#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"

namespace stsyn::bdd {

namespace {
/// Requires both operands to come from the same live manager.
Manager* commonManager(const Bdd& a, const Bdd& b) {
  if (!a.valid() || !b.valid() || a.manager() != b.manager()) {
    throw std::invalid_argument("BDD operands from different managers");
  }
  return a.manager();
}
}  // namespace

// ---------------------------------------------------------------------------
// The And kernel (Or/Nand/Nor reach it through De Morgan, see orRec).
// ---------------------------------------------------------------------------

NodeIndex Manager::andRec(NodeIndex f, NodeIndex g) {
  // Terminal rules; f == ¬g is structurally visible with complement edges.
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == kTrue) return g;
  if (g == kTrue) return f;
  if (f == g) return f;
  if (f == negateEdge(g)) return kFalse;
  // Commutative: normalize operand order for better cache hit rates.
  if (f > g) std::swap(f, g);

  NodeIndex cached;
  if (cacheLookup(Op::And, f, g, 0, cached)) return cached;

  // Copy (not reference) the nodes: recursion below may grow the pool and
  // invalidate references into nodes_. Cofactors read through the edge
  // sign (throughEdge), so a complemented operand cofactors into the
  // complements of its node's children.
  const Node nf = nodes_[nodeOf(f)];
  const Node ng = nodes_[nodeOf(g)];
  // Both operands are internal here (terminal cases handled above), so
  // their vars have levels; the topmost (smallest level) splits first.
  const Var top =
      indexToLevel_[nf.var] < indexToLevel_[ng.var] ? nf.var : ng.var;
  const NodeIndex f0 = nf.var == top ? throughEdge(f, nf.low) : f;
  const NodeIndex f1 = nf.var == top ? throughEdge(f, nf.high) : f;
  const NodeIndex g0 = ng.var == top ? throughEdge(g, ng.low) : g;
  const NodeIndex g1 = ng.var == top ? throughEdge(g, ng.high) : g;

  const NodeIndex low = andRec(f0, g0);
  const NodeIndex high = andRec(f1, g1);
  const NodeIndex result = mk(top, low, high);
  cacheStore(Op::And, f, g, 0, result);
  return result;
}

NodeIndex Manager::xorRec(NodeIndex f, NodeIndex g) {
  // Sign-normalize: ¬f ⊕ g = ¬(f ⊕ g), so the kernel recurses and caches
  // on regular operands only and all four sign combinations of (f, g)
  // share one cache entry.
  const bool flip = isComplement(f) != isComplement(g);
  f = regularEdge(f);
  g = regularEdge(g);
  NodeIndex r;
  if (f == g) {
    r = kFalse;
  } else if (f == kTrue) {
    r = negateEdge(g);
  } else if (g == kTrue) {
    r = negateEdge(f);
  } else {
    if (f > g) std::swap(f, g);
    if (!cacheLookup(Op::Xor, f, g, 0, r)) {
      const Node nf = nodes_[nodeOf(f)];  // copies: recursion may realloc
      const Node ng = nodes_[nodeOf(g)];
      const Var top =
          indexToLevel_[nf.var] < indexToLevel_[ng.var] ? nf.var : ng.var;
      // Both operands are regular, so their children are their cofactors.
      const NodeIndex f0 = nf.var == top ? nf.low : f;
      const NodeIndex f1 = nf.var == top ? nf.high : f;
      const NodeIndex g0 = ng.var == top ? ng.low : g;
      const NodeIndex g1 = ng.var == top ? ng.high : g;
      const NodeIndex low = xorRec(f0, g0);
      const NodeIndex high = xorRec(f1, g1);
      r = mk(top, low, high);
      cacheStore(Op::Xor, f, g, 0, r);
    }
  }
  return flip ? negateEdge(r) : r;
}

// ---------------------------------------------------------------------------
// Implication test: f -> g valid iff f ∧ ¬g is UNSAT, decided without
// building a single node.
// ---------------------------------------------------------------------------

bool Manager::implRec(NodeIndex f, NodeIndex g) {
  if (f == kFalse || g == kTrue) return true;
  if (f == g) return true;
  if (g == kFalse) return false;  // f != kFalse here, so f ∧ ¬g = f is SAT
  if (f == kTrue) return false;   // g != kTrue here
  if (f == negateEdge(g)) return false;  // f ∧ ¬g = f, internal, SAT
  NodeIndex cached;
  if (cacheLookup(Op::Impl, f, g, 0, cached)) return cached == kTrue;

  const Node nf = nodes_[nodeOf(f)];
  const Node ng = nodes_[nodeOf(g)];
  const Var top =
      indexToLevel_[nf.var] < indexToLevel_[ng.var] ? nf.var : ng.var;
  const NodeIndex f0 = nf.var == top ? throughEdge(f, nf.low) : f;
  const NodeIndex f1 = nf.var == top ? throughEdge(f, nf.high) : f;
  const NodeIndex g0 = ng.var == top ? throughEdge(g, ng.low) : g;
  const NodeIndex g1 = ng.var == top ? throughEdge(g, ng.high) : g;

  const bool result = implRec(f0, g0) && implRec(f1, g1);
  cacheStore(Op::Impl, f, g, 0, result ? kTrue : kFalse);
  return result;
}

// ---------------------------------------------------------------------------
// Quantification.
// ---------------------------------------------------------------------------

NodeIndex Manager::existsRec(NodeIndex f, NodeIndex cube) {
  if (f == kFalse || f == kTrue) return f;
  // Skip cube variables above the top variable of f (by current level).
  // Cube edges are regular throughout: cube() chains positive literals.
  while (cube != kTrue && nodeLevel(cube) < nodeLevel(f)) {
    cube = nodes_[nodeOf(cube)].high;
  }
  if (cube == kTrue) return f;

  // ∃x.¬f ≠ ¬∃x.f, so the sign of f stays in the cache key.
  NodeIndex cached;
  if (cacheLookup(Op::Exists, f, cube, 0, cached)) return cached;

  const Node nf = nodes_[nodeOf(f)];  // copy: recursion may reallocate
  const NodeIndex f0 = throughEdge(f, nf.low);
  const NodeIndex f1 = throughEdge(f, nf.high);
  const NodeIndex cubeRest = nodes_[nodeOf(cube)].high;
  NodeIndex result;
  if (nf.var == nodes_[nodeOf(cube)].var) {
    const NodeIndex low = existsRec(f0, cubeRest);
    if (low == kTrue) {
      result = kTrue;  // OR with anything is TRUE: short-circuit
    } else {
      result = orRec(low, existsRec(f1, cubeRest));
    }
  } else {
    const NodeIndex low = existsRec(f0, cube);
    const NodeIndex high = existsRec(f1, cube);
    result = mk(nf.var, low, high);
  }
  cacheStore(Op::Exists, f, cube, 0, result);
  return result;
}

NodeIndex Manager::andExistsRec(NodeIndex f, NodeIndex g, NodeIndex cube) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (f == negateEdge(g)) return kFalse;
  if (f == kTrue && g == kTrue) return kTrue;
  if (f == kTrue) return existsRec(g, cube);
  if (g == kTrue) return existsRec(f, cube);
  if (f == g) return existsRec(f, cube);
  if (f > g) std::swap(f, g);

  const Node nf = nodes_[nodeOf(f)];  // copies: recursion may reallocate
  const Node ng = nodes_[nodeOf(g)];
  const Var top =
      indexToLevel_[nf.var] < indexToLevel_[ng.var] ? nf.var : ng.var;
  while (cube != kTrue && nodeLevel(cube) < indexToLevel_[top]) {
    cube = nodes_[nodeOf(cube)].high;
  }
  if (cube == kTrue) return andRec(f, g);

  NodeIndex cached;
  if (cacheLookup(Op::AndExists, f, g, cube, cached)) return cached;

  const NodeIndex f0 = nf.var == top ? throughEdge(f, nf.low) : f;
  const NodeIndex f1 = nf.var == top ? throughEdge(f, nf.high) : f;
  const NodeIndex g0 = ng.var == top ? throughEdge(g, ng.low) : g;
  const NodeIndex g1 = ng.var == top ? throughEdge(g, ng.high) : g;

  NodeIndex result;
  const NodeIndex cubeRest = nodes_[nodeOf(cube)].high;
  const bool quantifyTop = nodes_[nodeOf(cube)].var == top;
  if (quantifyTop) {
    const NodeIndex low = andExistsRec(f0, g0, cubeRest);
    if (low == kTrue) {
      result = kTrue;  // OR with anything is TRUE: short-circuit
    } else {
      const NodeIndex high = andExistsRec(f1, g1, cubeRest);
      result = orRec(low, high);
    }
  } else {
    const NodeIndex low = andExistsRec(f0, g0, cube);
    const NodeIndex high = andExistsRec(f1, g1, cube);
    result = mk(top, low, high);
  }
  cacheStore(Op::AndExists, f, g, cube, result);
  return result;
}

// ---------------------------------------------------------------------------
// Fused image kernels. relNext and relPrev recurse one (current, next) pair
// at a time and build their result on the current levels directly, so an
// image step is one pass instead of an AndExists on the next levels plus a
// rename back (or a rename forward plus an AndExists, for a preimage).
// ---------------------------------------------------------------------------

NodeIndex Manager::relProductRec(Op op, NodeIndex s, NodeIndex r,
                                 NodeIndex c) {
  if (s == kFalse || r == kFalse || c == kFalse) return kFalse;
  if (r == kTrue) return c;  // s is non-empty, and every pair is related

  NodeIndex cached;
  if (cacheLookup(op, s, r, c, cached)) return cached;

  // The top pair holds the topmost variable of the three operands; r is
  // internal here, so the minimum is a real level.
  Var top = nodeLevel(r);
  top = std::min(top, nodeLevel(s));
  top = std::min(top, nodeLevel(c));
  const Var v = levelToIndex_[top];
  const Var cur = pairCur_[v];
  const Var next = pairNext_[v];
  if (cur == kTerminalVar) {
    throw std::logic_error(
        "relNext/relPrev: operand support outside the registered "
        "(current, next) pairs");
  }
  // s and c range over current-state variables only.
  if (nodes_[nodeOf(s)].var == next || nodes_[nodeOf(c)].var == next) {
    throw std::logic_error(
        "relNext/relPrev: state operand depends on a next-state variable");
  }

  // Cofactors by value of one variable (the edge itself when its node does
  // not test that variable). Nodes are copied: recursion may realloc.
  const auto cofactor = [this](NodeIndex e, Var var, NodeIndex out[2]) {
    const Node n = nodes_[nodeOf(e)];
    out[0] = n.var == var ? throughEdge(e, n.low) : e;
    out[1] = n.var == var ? throughEdge(e, n.high) : e;
  };
  NodeIndex s01[2];
  NodeIndex c01[2];
  cofactor(s, cur, s01);
  cofactor(c, cur, c01);
  // r[a][b] = r with current bit a and next bit b, cofactored by the upper
  // member of the pair first: pairs are adjacent, so after it the lower
  // member is the only variable left to split at this pair.
  const bool curOnTop = indexToLevel_[cur] < indexToLevel_[next];
  const Var upper = curOnTop ? cur : next;
  const Var lower = curOnTop ? next : cur;
  NodeIndex ru[2];
  NodeIndex rul[2][2];
  cofactor(r, upper, ru);
  cofactor(ru[0], lower, rul[0]);
  cofactor(ru[1], lower, rul[1]);
  NodeIndex rab[2][2];
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      rab[a][b] = curOnTop ? rul[a][b] : rul[b][a];
    }
  }

  // Branch x of the result fixes its current bit to x; the quantified bit
  // y runs over the other side of the pair. An image quantifies the
  // source (r[y][x] with s_y), a preimage the target (r[x][y] with s_y).
  const bool image = op == Op::RelNext;
  NodeIndex branch[2];
  for (int x = 0; x < 2; ++x) {
    const NodeIndex r0 = image ? rab[0][x] : rab[x][0];
    const NodeIndex r1 = image ? rab[1][x] : rab[x][1];
    const NodeIndex lo = relProductRec(op, s01[0], r0, c01[x]);
    if (lo == c01[x] || (s01[0] == s01[1] && r0 == r1)) {
      branch[x] = lo;  // already all of c, or the other disjunct is equal
    } else {
      branch[x] = orRec(lo, relProductRec(op, s01[1], r1, c01[x]));
    }
  }
  const NodeIndex result = mk(cur, branch[0], branch[1]);
  cacheStore(op, s, r, c, result);
  return result;
}

// ---------------------------------------------------------------------------
// The renamed relational product ∃cube. f ∧ g[perm]. g's node on variable
// v splits at the level of perm[v], so g[perm] is never built; the order-
// preservation precondition keeps g's renamed children below it.
// ---------------------------------------------------------------------------

NodeIndex Manager::andExistsRenamedRec(NodeIndex f, NodeIndex g,
                                       NodeIndex cube,
                                       const RenamedCall& call) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (g == kTrue) return existsRec(f, cube);
  const Node ng = nodes_[nodeOf(g)];  // copies: recursion may reallocate
  // Below every variable the permutation moves, g[perm] is g: hand off to
  // the plain product, whose entries every renaming shares.
  if (indexToLevel_[ng.var] >= call.unmovedFrom) {
    return andExistsRec(f, g, cube);
  }
  const Var gLevel = indexToLevel_[call.perm[ng.var]];
  const Var fLevel = nodeLevel(f);
  const Var topLevel = std::min(fLevel, gLevel);
  while (cube != kTrue && nodeLevel(cube) < topLevel) {
    cube = nodes_[nodeOf(cube)].high;
  }
  // The cube left at this point is the renaming's cube below topLevel, a
  // function of (f, g) under the current order: the id keys it exactly.
  NodeIndex cached;
  if (cacheLookup(Op::AndExistsRenamed, f, g, call.id, cached)) return cached;

  const Node nf = nodes_[nodeOf(f)];
  const NodeIndex f0 = fLevel == topLevel ? throughEdge(f, nf.low) : f;
  const NodeIndex f1 = fLevel == topLevel ? throughEdge(f, nf.high) : f;
  const NodeIndex g0 = gLevel == topLevel ? throughEdge(g, ng.low) : g;
  const NodeIndex g1 = gLevel == topLevel ? throughEdge(g, ng.high) : g;

  const Var top = levelToIndex_[topLevel];
  NodeIndex result;
  if (cube != kTrue && nodes_[nodeOf(cube)].var == top) {
    const NodeIndex cubeRest = nodes_[nodeOf(cube)].high;
    const NodeIndex low = andExistsRenamedRec(f0, g0, cubeRest, call);
    if (low == kTrue) {
      result = kTrue;  // OR with anything is TRUE: short-circuit
    } else {
      result = orRec(low, andExistsRenamedRec(f1, g1, cubeRest, call));
    }
  } else {
    const NodeIndex low = andExistsRenamedRec(f0, g0, cube, call);
    const NodeIndex high = andExistsRenamedRec(f1, g1, cube, call);
    result = mk(top, low, high);
  }
  cacheStore(Op::AndExistsRenamed, f, g, call.id, result);
  return result;
}

// ---------------------------------------------------------------------------
// Public wrappers on Bdd.
// ---------------------------------------------------------------------------

Bdd Bdd::operator&(const Bdd& rhs) const {
  Manager* m = commonManager(*this, rhs);
  m->maybeGc();
  return m->wrap(m->andRec(index_, rhs.index_));
}

Bdd Bdd::operator|(const Bdd& rhs) const {
  Manager* m = commonManager(*this, rhs);
  m->maybeGc();
  return m->wrap(m->orRec(index_, rhs.index_));
}

Bdd Bdd::operator^(const Bdd& rhs) const {
  Manager* m = commonManager(*this, rhs);
  m->maybeGc();
  return m->wrap(m->xorRec(index_, rhs.index_));
}

Bdd Bdd::operator!() const {
  if (!valid()) throw std::invalid_argument("negation of a null BDD");
  // O(1), zero allocation: flip the complement bit on the edge. No GC
  // boundary — nothing here can grow the pool.
  return mgr_->wrap(Manager::negateEdge(index_));
}

bool Bdd::implies(const Bdd& rhs) const {
  Manager* m = commonManager(*this, rhs);
  // Recursive entailment check: decides f ∧ ¬g == false without
  // materializing either the negation (free anyway) or the conjunction.
  m->maybeGc();
  return m->implRec(index_, rhs.index_);
}

Bdd Bdd::exists(const Bdd& cube) const {
  Manager* m = commonManager(*this, cube);
  m->maybeGc();
  return m->wrap(m->existsRec(index_, cube.index_));
}

Bdd Bdd::andExists(const Bdd& rhs, const Bdd& cube) const {
  Manager* m = commonManager(*this, rhs);
  if (cube.manager() != m) {
    throw std::invalid_argument("BDD operands from different managers");
  }
  m->maybeGc();
  return m->wrap(m->andExistsRec(index_, rhs.index_, cube.index_));
}

Bdd Bdd::relNext(const Bdd& rel, const Bdd& within) const {
  Manager* m = commonManager(*this, rel);
  if (within.manager() != m) {
    throw std::invalid_argument("BDD operands from different managers");
  }
  m->maybeGc();
  return m->wrap(
      m->relProductRec(Manager::Op::RelNext, index_, rel.index_, within.index_));
}

Bdd Bdd::relPrev(const Bdd& states, const Bdd& within) const {
  Manager* m = commonManager(*this, states);
  if (within.manager() != m) {
    throw std::invalid_argument("BDD operands from different managers");
  }
  m->maybeGc();
  return m->wrap(m->relProductRec(Manager::Op::RelPrev, states.index_, index_,
                                  within.index_));
}

Bdd Bdd::andExistsRenamed(const Bdd& g, RenamingId id) const {
  Manager* m = commonManager(*this, g);
  if (id >= m->renamings_.size()) {
    throw std::invalid_argument("andExistsRenamed: unknown renaming id");
  }
  m->maybeGc();
  // Levels move only under reordering, which runs at the boundary above,
  // so the hand-off level is fixed for the whole recursion.
  const Manager::Renaming& r = m->renamings_[id];
  Var unmovedFrom = 0;
  for (const Var v : r.moved) {
    unmovedFrom = std::max(unmovedFrom, m->levelOf(v) + 1);
  }
  return m->wrap(m->andExistsRenamedRec(index_, g.index_, r.cube,
                                        {r.perm.data(), id, unmovedFrom}));
}

Bdd Bdd::rename(std::span<const Var> perm) const {
  if (!valid()) throw std::invalid_argument("rename of a null BDD");
  const Bdd all = mgr_->trueBdd();
  return all.andExistsRenamed(*this, mgr_->internRenaming(perm, all));
}

}  // namespace stsyn::bdd
