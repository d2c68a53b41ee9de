// Tests for dynamic variable reordering (grouped sifting).
//
// The contract under test: reorderNow() may permute levels freely, but
// every external Bdd handle keeps denoting the same boolean function,
// canonicity within the manager is preserved (equal functions are the
// same handle), and atomic groups stay adjacent in their registered
// relative order.
#include <gtest/gtest.h>

#include <vector>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"

namespace {

using stsyn::bdd::Bdd;
using stsyn::bdd::Manager;
using stsyn::bdd::Var;
using stsyn::util::Rng;

/// The classic order-sensitive function: (x0 & xn) | (x1 & x{n+1}) | ...
/// With partners declared far apart the identity order is exponential;
/// the optimal (interleaved) order is linear in n.
Bdd distantPairs(Manager& m, Var n) {
  Bdd f = m.falseBdd();
  for (Var i = 0; i < n; ++i) f |= m.var(i) & m.var(n + i);
  return f;
}

TEST(Reorder, HandlesStayValidAndFunctionsUnchanged) {
  constexpr Var kN = 6;
  Manager m(2 * kN);
  const Bdd f = distantPairs(m, kN);
  const Bdd g = m.var(1) ^ m.var(7);
  const Bdd h = f & g;

  // Record full truth tables before sifting.
  std::vector<char> assign(2 * kN);
  std::vector<bool> tf;
  std::vector<bool> tg;
  std::vector<bool> th;
  for (unsigned a = 0; a < (1u << (2 * kN)); ++a) {
    for (Var v = 0; v < 2 * kN; ++v) assign[v] = (a >> v) & 1;
    tf.push_back(f.eval(assign));
    tg.push_back(g.eval(assign));
    th.push_back(h.eval(assign));
  }

  m.reorderNow();
  m.checkInvariants();

  for (unsigned a = 0; a < (1u << (2 * kN)); ++a) {
    for (Var v = 0; v < 2 * kN; ++v) assign[v] = (a >> v) & 1;
    ASSERT_EQ(f.eval(assign), tf[a]) << a;
    ASSERT_EQ(g.eval(assign), tg[a]) << a;
    ASSERT_EQ(h.eval(assign), th[a]) << a;
  }
  // Canonicity survives: rebuilding the same functions yields the same
  // handles, and the algebra still agrees.
  EXPECT_TRUE(distantPairs(m, kN) == f);
  EXPECT_TRUE((f & g) == h);
  EXPECT_EQ(m.stats().reorderRuns, 1u);
}

TEST(Reorder, ShrinksAdversarialOrder) {
  constexpr Var kN = 8;
  Manager m(2 * kN);
  const Bdd f = distantPairs(m, kN);
  const std::size_t before = f.nodeCount();
  m.reorderNow();
  m.checkInvariants();
  const std::size_t after = f.nodeCount();
  // Identity order needs ~2^n nodes, a good order ~3n; sifting must find a
  // dramatically smaller diagram (well beyond the 20% bar).
  EXPECT_GT(before, std::size_t{1} << kN);
  EXPECT_LT(after, before / 4);
  EXPECT_LE(after, std::size_t{4} * kN);
  // The order actually changed and the maps stay inverse bijections.
  const std::vector<Var> order = m.currentOrder();
  std::vector<Var> identity(2 * kN);
  for (Var v = 0; v < 2 * kN; ++v) identity[v] = v;
  EXPECT_NE(order, identity);
  for (Var level = 0; level < 2 * kN; ++level) {
    EXPECT_EQ(m.levelOf(order[level]), level);
    EXPECT_EQ(m.varAtLevel(level), order[level]);
  }
}

TEST(Reorder, GroupsStayAdjacentInRegisteredOrder) {
  constexpr Var kN = 6;
  Manager m(2 * kN);
  // Pair (2i, 2i+1) as atomic blocks, like the protocol encoding's
  // interleaved (current, next) copies.
  std::vector<std::vector<Var>> groups;
  for (Var v = 0; v < 2 * kN; v += 2) groups.push_back({v, Var(v + 1)});
  m.setReorderGroups(groups);

  // Entangle distant pairs so sifting has an incentive to move blocks.
  Bdd f = m.falseBdd();
  for (Var i = 0; i + 1 < kN; ++i) f |= m.var(2 * i) & m.var(2 * (i + 1) + 1);
  f |= m.var(0) & m.var(2 * kN - 1);
  m.reorderNow();
  m.checkInvariants();

  for (Var v = 0; v < 2 * kN; v += 2) {
    EXPECT_EQ(m.levelOf(Var(v + 1)), m.levelOf(v) + 1)
        << "pair (" << v << "," << v + 1 << ") split by sifting";
  }
}

TEST(Reorder, RejectsMalformedGroups) {
  Manager m(6);
  EXPECT_THROW(m.setReorderGroups({{0, 2}}), std::invalid_argument);
  EXPECT_THROW(m.setReorderGroups({{0, 1}, {1, 2}}), std::invalid_argument);
  EXPECT_THROW(m.setReorderGroups({{6}}), std::invalid_argument);
  EXPECT_THROW(m.setReorderGroups({{}}), std::invalid_argument);
}

TEST(Reorder, SetLevelOrderRejectsASplitGroup) {
  // A layout that separates a registered pair would let renames and the
  // fused image kernels build malformed BDDs, so it is refused up front.
  Manager m(4);
  m.setReorderGroups({{0, 1}, {2, 3}});
  const Bdd f = (m.var(0) & m.var(3)) | m.var(1);
  const std::vector<Var> split{0, 2, 1, 3};
  EXPECT_THROW(m.setLevelOrder(split), std::invalid_argument);
  EXPECT_EQ(m.currentOrder(), (std::vector<Var>{0, 1, 2, 3}));
  m.checkInvariants();
  // Moving whole pairs, or flipping members inside a pair, is accepted.
  const std::vector<Var> swapped{2, 3, 0, 1};
  m.setLevelOrder(swapped);
  EXPECT_EQ(m.currentOrder(), swapped);
  const std::vector<Var> flipped{1, 0, 3, 2};
  m.setLevelOrder(flipped);
  EXPECT_EQ(m.currentOrder(), flipped);
  EXPECT_EQ(f, (m.var(0) & m.var(3)) | m.var(1));
}

TEST(Reorder, OperationsAndAnalysesAgreeAfterReorder) {
  constexpr Var kN = 5;
  Manager m(2 * kN);
  const Bdd f = distantPairs(m, kN);
  const Bdd g = m.var(2) | (m.var(3) & m.var(8));

  std::vector<Var> all(2 * kN);
  for (Var v = 0; v < 2 * kN; ++v) all[v] = v;
  const double cf = f.satCount(all);
  const double cg = g.satCount(all);
  m.reorderNow();
  m.checkInvariants();

  // satCount is order-independent.
  EXPECT_DOUBLE_EQ(f.satCount(all), cf);
  EXPECT_DOUBLE_EQ(g.satCount(all), cg);

  // Quantification still satisfies its laws, and the results built on the
  // new order agree with their definitions on every assignment.
  const std::vector<Var> q{0, 5};
  const Bdd cube = m.cube(q);
  const Bdd ex = f.andExists(g, cube);
  EXPECT_TRUE(ex == (f & g).exists(cube));
  const Bdd sel = (f & g) | ((!f) & (!g));
  std::vector<char> assign(2 * kN);
  for (unsigned bits = 0; bits < (1u << (2 * kN)); ++bits) {
    for (Var v = 0; v < 2 * kN; ++v) assign[v] = (bits >> v) & 1;
    ASSERT_EQ(sel.eval(assign), f.eval(assign) == g.eval(assign)) << bits;
    bool witness = false;
    for (unsigned x = 0; x < 4 && !witness; ++x) {
      std::vector<char> a = assign;
      a[0] = x & 1;
      a[5] = (x >> 1) & 1;
      witness = f.eval(a) && g.eval(a);
    }
    ASSERT_EQ(ex.eval(assign), witness) << bits;
  }
}

TEST(Reorder, AutoReorderTriggersUnderGrowth) {
  constexpr Var kN = 8;
  Manager m(2 * kN);
  m.setReorderThreshold(64);
  m.enableAutoReorder();
  ASSERT_TRUE(m.autoReorderEnabled());
  const Bdd f = distantPairs(m, kN);
  // Building the adversarial function blows past the threshold, so some
  // operation boundary must have sifted.
  EXPECT_GE(m.stats().reorderRuns, 1u);
  EXPECT_LT(m.stats().reorderNodesAfter, m.stats().reorderNodesBefore);
  // The function is intact.
  std::vector<char> assign(2 * kN, 0);
  assign[3] = 1;
  assign[kN + 3] = 1;
  EXPECT_TRUE(f.eval(assign));
}

TEST(Reorder, RepeatedSiftingIsStableAndCheap) {
  constexpr Var kN = 6;
  Manager m(2 * kN);
  const Bdd f = distantPairs(m, kN);
  m.reorderNow();
  m.checkInvariants();
  const std::size_t settled = f.nodeCount();
  m.reorderNow();
  m.checkInvariants();
  // A second pass on an already-sifted pool must not regress.
  EXPECT_LE(f.nodeCount(), settled);
  EXPECT_EQ(m.stats().reorderRuns, 2u);
}

TEST(Reorder, PoolInvariantsHoldAfterEveryPass) {
  // Stress the swap kernel against the structural invariant checker: the
  // complement-edge canonical form (regular then-edges, no redundant or
  // duplicate nodes, children strictly deeper) must survive arbitrary
  // interleavings of construction, sifting, and forced order changes.
  constexpr Var kVars = 10;
  Manager m(kVars);
  Rng rng(2024);
  std::vector<Bdd> keep;
  for (int round = 0; round < 8; ++round) {
    Bdd f = rng.flip() ? m.trueBdd() : m.falseBdd();
    for (int i = 0; i < 12; ++i) {
      Bdd lit = m.var(static_cast<Var>(rng.below(kVars)));
      if (rng.flip()) lit = !lit;
      switch (rng.below(3)) {
        case 0: f = f & lit; break;
        case 1: f = f | lit; break;
        default: f = f ^ lit; break;
      }
    }
    keep.push_back(f);
    m.reorderNow();
    m.checkInvariants();  // throws std::logic_error on any violation
  }
  // A forced (non-sifted) order change goes through the same swap kernel.
  std::vector<Var> reversed(kVars);
  for (Var v = 0; v < kVars; ++v) reversed[v] = kVars - 1 - v;
  m.setLevelOrder(reversed);
  m.checkInvariants();
  // And the functions still mean what they meant.
  std::vector<char> assign(kVars, 0);
  for (const Bdd& f : keep) {
    (void)f.eval(assign);  // must not trip internal assertions
  }
}

}  // namespace
