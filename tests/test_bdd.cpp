// Unit tests for the BDD substrate: construction, boolean algebra,
// quantification, relational products, the renamed product, analyses, garbage
// collection, and the operation cache's growth.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>
#include <thread>

#include "bdd/bdd.hpp"
#include "casestudies/coloring.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "symbolic/relations.hpp"
#include "util/rng.hpp"

namespace stsyn::bdd {

/// Test-only backdoor (friend of Manager) used to plant adversarial
/// operation-cache entries for the GC sweep regression tests and to drive
/// the cache's growth rule directly.
struct ManagerTestAccess {
  static void plantCacheEntry(Manager& m, NodeIndex a, NodeIndex b,
                              NodeIndex c, NodeIndex result) {
    Manager::CacheEntry& e = m.cache_[0];
    e.ka = a;  // op nibble 0 (And) | a-operand edge
    e.b = b;
    e.c = c;
    e.result = result;
  }
  static bool frontSlotEvicted(const Manager& m) {
    return m.cache_[0].ka == Manager::kCacheEmpty;
  }
  static std::size_t cacheEntries(const Manager& m) { return m.cacheSize_; }
  /// A probe of key (a, b), as a kernel makes it before computing.
  static bool lookup(Manager& m, NodeIndex a, NodeIndex b, NodeIndex& out) {
    return m.cacheLookup(Manager::Op::And, a, b, 0, out);
  }
  /// A kernel's miss: probe, then install (a, b) -> result.
  static void missAndStore(Manager& m, NodeIndex a, NodeIndex b,
                           NodeIndex result) {
    NodeIndex ignored;
    (void)m.cacheLookup(Manager::Op::And, a, b, 0, ignored);
    m.cacheStore(Manager::Op::And, a, b, 0, result);
  }
  static void decideGrowth(Manager& m) { m.maybeGrowCache(); }
  /// Every occupied slot of the active prefix as (a, b, result).
  static std::vector<std::array<NodeIndex, 3>> storedEntries(
      const Manager& m) {
    std::vector<std::array<NodeIndex, 3>> out;
    for (std::size_t i = 0; i < m.cacheSize_; ++i) {
      const Manager::CacheEntry& e = m.cache_[i];
      if (e.ka != Manager::kCacheEmpty) out.push_back({e.ka, e.b, e.result});
    }
    return out;
  }
};

}  // namespace stsyn::bdd

namespace {

using stsyn::bdd::Bdd;
using stsyn::bdd::Manager;
using stsyn::bdd::ManagerTestAccess;
using stsyn::bdd::NodeIndex;
using stsyn::bdd::Var;

std::vector<Var> levels(Var n) {
  std::vector<Var> out(n);
  for (Var i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(BddBasics, ConstantsAreDistinctAndIdempotent) {
  Manager m(4);
  EXPECT_TRUE(m.trueBdd().isTrue());
  EXPECT_TRUE(m.falseBdd().isFalse());
  EXPECT_FALSE(m.trueBdd() == m.falseBdd());
  EXPECT_TRUE(m.trueBdd() == m.constant(true));
}

TEST(BddBasics, NullHandleBehaviour) {
  Bdd null;
  EXPECT_FALSE(null.valid());
  EXPECT_FALSE(null.isTrue());
  EXPECT_FALSE(null.isFalse());
  EXPECT_EQ(null.nodeCount(), 0u);
  EXPECT_THROW((void)!null, std::invalid_argument);
}

TEST(BddBasics, VarAndNvarAreComplements) {
  Manager m(4);
  for (Var v = 0; v < 4; ++v) {
    EXPECT_TRUE(m.nvar(v) == !m.var(v));
  }
  EXPECT_THROW((void)m.var(4), std::out_of_range);
}

TEST(BddBasics, CanonicityStructuralEqualityIsSemantic) {
  Manager m(4);
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  // Two different constructions of the same function share the node.
  EXPECT_TRUE((a | b) == (!((!a) & (!b))));
  EXPECT_TRUE((a ^ b) == ((a & (!b)) | ((!a) & b)));
}

TEST(BddBasics, OperandsFromDifferentManagersRejected) {
  Manager m1(2);
  Manager m2(2);
  EXPECT_THROW((void)(m1.var(0) & m2.var(0)), std::invalid_argument);
}

TEST(BddBasics, ImpliesMatchesDefinition) {
  Manager m(3);
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  EXPECT_TRUE((a & b).implies(a));
  EXPECT_FALSE(a.implies(a & b));
  EXPECT_TRUE(m.falseBdd().implies(a));
  EXPECT_TRUE(a.implies(m.trueBdd()));
}

TEST(BddBasics, MinusIsSetDifference) {
  Manager m(2);
  const Bdd a = m.var(0);
  const Bdd b = m.var(1);
  EXPECT_TRUE(a.minus(b) == (a & !b));
  EXPECT_TRUE(a.minus(a).isFalse());
}

TEST(BddQuantify, ExistsRemovesSupport) {
  Manager m(4);
  const Bdd f = (m.var(0) & m.var(1)) | m.var(2);
  const std::vector<Var> q{0};
  const Bdd ex = f.exists(m.cube(q));
  // exists x0: (x0 & x1) | x2  ==  x1 | x2
  EXPECT_TRUE(ex == (m.var(1) | m.var(2)));
  // x0 left the support: quantifying it again changes nothing.
  EXPECT_TRUE(ex.exists(m.cube(q)) == ex);
}

TEST(BddQuantify, QuantifyingNonSupportIsIdentity) {
  Manager m(4);
  const Bdd f = m.var(1) ^ m.var(2);
  const std::vector<Var> q{0, 3};
  EXPECT_TRUE(f.exists(m.cube(q)) == f);
}

TEST(BddQuantify, AndExistsEqualsComposition) {
  Manager m(6);
  const Bdd f = (m.var(0) & m.var(2)) | (m.var(1) & !m.var(3));
  const Bdd g = m.var(2) | m.var(4);
  const std::vector<Var> q{2, 3};
  const Bdd cube = m.cube(q);
  EXPECT_TRUE(f.andExists(g, cube) == (f & g).exists(cube));
}

// ---------------------------------------------------------------------------
// Fused image kernels against the formulas they replace: an AndExists on
// the next levels renamed back (image), and a rename forward before an
// AndExists (preimage), then the constraint.
// ---------------------------------------------------------------------------

/// Pair i is (current 2i, next 2i + 1), registered as the encoding does.
constexpr Var kPairs = 5;

void registerPairs(Manager& m) {
  std::vector<std::vector<Var>> groups;
  for (Var i = 0; i < kPairs; ++i) groups.push_back({2 * i, 2 * i + 1});
  m.setReorderGroups(std::move(groups));
}

/// A random function over the current copies (currentOnly) or all pairs.
Bdd randomPairFunction(Manager& m, stsyn::util::Rng& rng, bool currentOnly) {
  Bdd f = rng.flip() ? m.trueBdd() : m.falseBdd();
  for (int i = 0; i < 8; ++i) {
    const auto v = static_cast<Var>(currentOnly ? 2 * rng.below(kPairs)
                                                : rng.below(2 * kPairs));
    Bdd lit = m.var(v);
    if (rng.flip()) lit = !lit;
    switch (rng.below(3)) {
      case 0: f = f & lit; break;
      case 1: f = f | lit; break;
      default: f = f ^ lit; break;
    }
  }
  return f;
}

Bdd imageReference(Manager& m, const Bdd& s, const Bdd& r, const Bdd& c) {
  std::vector<Var> toCur = levels(2 * kPairs);
  std::vector<Var> cur;
  for (Var i = 0; i < kPairs; ++i) {
    toCur[2 * i + 1] = 2 * i;
    cur.push_back(2 * i);
  }
  return (s & r).exists(m.cube(cur)).rename(toCur) & c;
}

Bdd preimageReference(Manager& m, const Bdd& r, const Bdd& s, const Bdd& c) {
  std::vector<Var> toNext = levels(2 * kPairs);
  std::vector<Var> next;
  for (Var i = 0; i < kPairs; ++i) {
    toNext[2 * i] = 2 * i + 1;
    next.push_back(2 * i + 1);
  }
  return (r & s.rename(toNext)).exists(m.cube(next)) & c;
}

/// Every sign and terminal combination of random S, R and C.
void expectKernelsMatchReference(Manager& m, std::uint64_t seed) {
  stsyn::util::Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    const Bdd s = randomPairFunction(m, rng, true);
    const Bdd r = randomPairFunction(m, rng, false);
    const Bdd c = randomPairFunction(m, rng, true);
    const std::array<Bdd, 4> ss{s, !s, m.trueBdd(), m.falseBdd()};
    const std::array<Bdd, 4> rs{r, !r, m.trueBdd(), m.falseBdd()};
    const std::array<Bdd, 4> cs{c, !c, m.trueBdd(), m.falseBdd()};
    for (const Bdd& si : ss) {
      for (const Bdd& ri : rs) {
        for (const Bdd& ci : cs) {
          EXPECT_EQ(si.relNext(ri, ci), imageReference(m, si, ri, ci))
              << "trial " << trial;
          EXPECT_EQ(ri.relPrev(si, ci), preimageReference(m, ri, si, ci))
              << "trial " << trial;
        }
      }
    }
  }
  m.checkInvariants();
}

/// Pair blocks dealt from the two halves of the layout (0, P/2, 1, ...),
/// current bit on top unless `nextOnTop`.
std::vector<Var> dealtPairOrder(bool nextOnTop) {
  std::vector<Var> order;
  const Var half = (kPairs + 1) / 2;
  for (Var i = 0; i < half; ++i) {
    for (const Var p : {i, half + i}) {
      if (p >= kPairs) continue;
      order.push_back(nextOnTop ? 2 * p + 1 : 2 * p);
      order.push_back(nextOnTop ? 2 * p : 2 * p + 1);
    }
  }
  return order;
}

TEST(BddRelProduct, MatchesReferenceUnderTheDeclaredLayout) {
  Manager m(2 * kPairs);
  registerPairs(m);
  expectKernelsMatchReference(m, 11);
}

TEST(BddRelProduct, MatchesReferenceUnderTheDealtPairLayout) {
  Manager m(2 * kPairs);
  registerPairs(m);
  m.setLevelOrder(dealtPairOrder(false));
  expectKernelsMatchReference(m, 12);
}

TEST(BddRelProduct, MatchesReferenceWithTheNextBitOnTop) {
  // The kernel relies only on adjacency: it cofactors whichever member of
  // a pair is upper first.
  Manager m(2 * kPairs);
  registerPairs(m);
  m.setLevelOrder(dealtPairOrder(true));
  expectKernelsMatchReference(m, 13);
}

TEST(BddRelProduct, MatchesReferenceAfterAForcedSift) {
  Manager m(2 * kPairs);
  registerPairs(m);
  const std::vector<Var> dealt = dealtPairOrder(false);
  m.setLevelOrder(dealt);
  // Entangle neighbouring pairs so sifting moves blocks off the dealt
  // order, then check the kernels on functions that lived through it.
  Bdd keep = m.falseBdd();
  for (Var i = 0; i + 1 < kPairs; ++i) {
    keep |= m.var(2 * i) & m.var(2 * (i + 1) + 1);
  }
  m.reorderNow();
  ASSERT_NE(m.currentOrder(), dealt);
  const Bdd r = keep ^ m.var(1);
  const Bdd s = m.var(0) | !m.var(4);
  EXPECT_EQ(s.relNext(r, m.trueBdd()), imageReference(m, s, r, m.trueBdd()));
  EXPECT_EQ(r.relPrev(s, !s), preimageReference(m, r, s, !s));
  expectKernelsMatchReference(m, 14);
}

TEST(BddRelProduct, RejectsOperandsOutsideThePairs) {
  Manager m(2 * kPairs + 1);  // the last variable belongs to no pair
  registerPairs(m);
  const Bdd unpaired = m.var(2 * kPairs);
  EXPECT_THROW((void)m.trueBdd().relNext(unpaired, m.trueBdd()),
               std::logic_error);
  EXPECT_THROW((void)unpaired.relPrev(m.trueBdd(), m.trueBdd()),
               std::logic_error);
  // The state operands range over current bits only.
  const Bdd next = m.var(1);
  EXPECT_THROW((void)next.relNext(m.var(0) ^ m.var(3), m.trueBdd()),
               std::logic_error);
  EXPECT_THROW((void)m.var(3).relPrev(m.trueBdd(), next), std::logic_error);
}

TEST(BddRename, ShiftWithinSupportOrder) {
  Manager m(6);
  const Bdd f = m.var(0) & !m.var(2);
  std::vector<Var> perm{1, 1, 3, 3, 4, 5};  // 0->1, 2->3 (monotone)
  const Bdd g = f.rename(perm);
  EXPECT_TRUE(g == (m.var(1) & !m.var(3)));
}

TEST(BddRename, WrongArityRejected) {
  Manager m(4);
  std::vector<Var> tooShort{0, 1};
  EXPECT_THROW((void)m.var(0).rename(tooShort), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The renamed product ∃cube. f ∧ g[perm] against truth tables built with
// eval alone: rename is this kernel's special case, so it cannot be the
// oracle.
// ---------------------------------------------------------------------------

constexpr Var kPairVars = 2 * kPairs;
/// A function's value on every assignment; bit v of the index is variable v.
using TruthTable = std::vector<char>;

TruthTable tableOf(const Bdd& f) {
  TruthTable t(std::size_t{1} << kPairVars);
  std::vector<char> assignment(kPairVars);
  for (std::size_t x = 0; x < t.size(); ++x) {
    for (Var v = 0; v < kPairVars; ++v) assignment[v] = (x >> v) & 1u;
    t[x] = f.eval(assignment) ? 1 : 0;
  }
  return t;
}

/// ∃cube. f ∧ g[perm]: at assignment x, g[perm] reads each variable v of g
/// at x's bit perm[v]; then every cube variable is OR-ed out.
TruthTable renamedProductTable(const TruthTable& f, const TruthTable& g,
                               const std::vector<Var>& perm,
                               const std::vector<Var>& cube) {
  TruthTable out(f.size());
  for (std::size_t x = 0; x < out.size(); ++x) {
    std::size_t y = 0;
    for (Var v = 0; v < kPairVars; ++v) y |= ((x >> perm[v]) & 1u) << v;
    out[x] = static_cast<char>(f[x] != 0 && g[y] != 0);
  }
  for (const Var v : cube) {
    const std::size_t bit = std::size_t{1} << v;
    for (std::size_t x = 0; x < out.size(); ++x) {
      if ((x & bit) == 0) out[x] = out[x | bit] = out[x] | out[x | bit];
    }
  }
  return out;
}

/// A random function over `vars` only.
Bdd randomFunctionOver(Manager& m, stsyn::util::Rng& rng,
                       const std::vector<Var>& vars) {
  Bdd f = rng.flip() ? m.trueBdd() : m.falseBdd();
  for (int i = 0; i < 8; ++i) {
    Bdd lit = m.var(vars[rng.below(vars.size())]);
    if (rng.flip()) lit = !lit;
    switch (rng.below(3)) {
      case 0: f = f & lit; break;
      case 1: f = f | lit; break;
      default: f = f ^ lit; break;
    }
  }
  return f;
}

/// For the identity, a partial cur->next renaming over a random subset of
/// the pairs, and the full one: random f over all pairs and g over the
/// variables the renaming keeps order-preserving (a moved pair contributes
/// its current bit only); for the empty, a random and the all-current
/// cube: every sign and terminal combination of f and g.
void expectRenamedProductMatchesTables(Manager& m, std::uint64_t seed) {
  stsyn::util::Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    for (const int kind : {0, 1, 2}) {  // identity, partial, full
      std::vector<Var> perm = levels(kPairVars);
      std::vector<Var> gVars;
      for (Var i = 0; i < kPairs; ++i) {
        const bool moved = kind == 2 || (kind == 1 && rng.flip());
        if (moved) perm[2 * i] = 2 * i + 1;
        gVars.push_back(2 * i);
        if (!moved) gVars.push_back(2 * i + 1);
      }
      std::vector<Var> noCube;
      std::vector<Var> randomCube;
      std::vector<Var> allCurrent;
      for (Var v = 0; v < kPairVars; ++v) {
        if (rng.below(3) == 0) randomCube.push_back(v);
        if (v % 2 == 0) allCurrent.push_back(v);
      }
      const Bdd f = randomPairFunction(m, rng, false);
      const Bdd g = randomFunctionOver(m, rng, gVars);
      const std::array<Bdd, 4> fs{f, !f, m.trueBdd(), m.falseBdd()};
      const std::array<Bdd, 4> gs{g, !g, m.trueBdd(), m.falseBdd()};
      EXPECT_EQ(tableOf(g.rename(perm)),
                renamedProductTable(tableOf(m.trueBdd()), tableOf(g), perm,
                                    {}))
          << "trial " << trial << " kind " << kind;
      for (const Bdd& fi : fs) {
        for (const Bdd& gi : gs) {
          // One (f, g) under three renamings in a row: a cache keyed
          // without the renaming would answer the later ones wrongly.
          for (const std::vector<Var>* cube :
               {&allCurrent, &randomCube, &noCube}) {
            const auto id = m.internRenaming(perm, m.cube(*cube));
            EXPECT_EQ(tableOf(fi.andExistsRenamed(gi, id)),
                      renamedProductTable(tableOf(fi), tableOf(gi), perm,
                                          *cube))
                << "trial " << trial << " kind " << kind << " cube size "
                << cube->size();
          }
        }
      }
    }
  }
  m.checkInvariants();
}

TEST(BddRenamedProduct, MatchesTruthTablesUnderTheDeclaredLayout) {
  Manager m(kPairVars);
  registerPairs(m);
  expectRenamedProductMatchesTables(m, 21);
}

TEST(BddRenamedProduct, MatchesTruthTablesWithTheNextBitOnTop) {
  Manager m(kPairVars);
  registerPairs(m);
  std::vector<Var> order;
  for (Var i = 0; i < kPairs; ++i) {
    order.push_back(2 * i + 1);
    order.push_back(2 * i);
  }
  m.setLevelOrder(order);
  expectRenamedProductMatchesTables(m, 22);
}

TEST(BddRenamedProduct, MatchesTruthTablesAfterAForcedSift) {
  Manager m(kPairVars);
  registerPairs(m);
  const std::vector<Var> dealt = dealtPairOrder(false);
  m.setLevelOrder(dealt);
  // A renaming interned before the sift: its cube is rewritten in place
  // and its hand-off level is read at call time.
  std::vector<Var> toNext = levels(kPairVars);
  for (Var i = 0; i < kPairs; ++i) toNext[2 * i] = 2 * i + 1;
  const std::vector<Var> lowCurrent{0, 2};
  const auto early = m.internRenaming(toNext, m.cube(lowCurrent));
  Bdd keep = m.falseBdd();
  for (Var i = 0; i + 1 < kPairs; ++i) {
    keep |= m.var(2 * i) & m.var(2 * (i + 1) + 1);
  }
  m.reorderNow();
  ASSERT_NE(m.currentOrder(), dealt);
  const Bdd g = m.var(0) ^ (m.var(4) & !m.var(8));
  EXPECT_EQ(tableOf(keep.andExistsRenamed(g, early)),
            renamedProductTable(tableOf(keep), tableOf(g), toNext,
                                lowCurrent));
  expectRenamedProductMatchesTables(m, 23);
}

TEST(BddRenamedProduct, InterningReturnsTheSameIdForAnEqualPair) {
  Manager m(4);
  const std::vector<Var> perm{1, 1, 3, 3};
  const auto a = m.internRenaming(perm, m.var(0) & m.var(2));
  EXPECT_EQ(m.internRenaming(perm, m.var(2) & m.var(0)), a);
  EXPECT_NE(m.internRenaming(perm, m.var(0)), a);
  EXPECT_NE(m.internRenaming(levels(4), m.var(0) & m.var(2)), a);
}

TEST(BddRenamedProduct, RejectsForeignOperandsAndBadRenamings) {
  Manager m(4);
  Manager other(4);
  const std::vector<Var> tooShort{0, 1};
  EXPECT_THROW((void)m.internRenaming(tooShort, m.trueBdd()),
               std::invalid_argument);
  const std::vector<Var> outOfRange{0, 1, 2, 4};
  EXPECT_THROW((void)m.internRenaming(outOfRange, m.trueBdd()),
               std::invalid_argument);
  EXPECT_THROW((void)m.internRenaming(levels(4), other.trueBdd()),
               std::invalid_argument);
  const auto id = m.internRenaming(levels(4), m.trueBdd());
  EXPECT_THROW((void)m.var(0).andExistsRenamed(other.var(1), id),
               std::invalid_argument);
  EXPECT_THROW((void)m.var(0).andExistsRenamed(m.var(1), id + 1),
               std::invalid_argument);
}

TEST(BddAnalysis, SatCountOverExplicitLevels) {
  Manager m(4);
  const Bdd f = m.var(0) | m.var(1);
  const std::vector<Var> lv2{0, 1};
  EXPECT_DOUBLE_EQ(f.satCount(lv2), 3.0);
  const std::vector<Var> lv3{0, 1, 3};
  EXPECT_DOUBLE_EQ(f.satCount(lv3), 6.0);
  EXPECT_DOUBLE_EQ(m.trueBdd().satCount(lv3), 8.0);
  EXPECT_DOUBLE_EQ(m.falseBdd().satCount(lv3), 0.0);
}

TEST(BddAnalysis, SatCountRejectsUncoveredSupport) {
  Manager m(4);
  const Bdd f = m.var(2);
  const std::vector<Var> lv{0, 1};
  EXPECT_THROW((void)f.satCount(lv), std::invalid_argument);
}

TEST(BddAnalysis, NodeCountOfSharedStructure) {
  Manager m(8);
  // A chain x0&x1&...&x5 has exactly 6 nodes.
  Bdd f = m.trueBdd();
  for (Var v = 0; v < 6; ++v) f &= m.var(v);
  EXPECT_EQ(f.nodeCount(), 6u);
  EXPECT_EQ(m.trueBdd().nodeCount(), 0u);
}

TEST(BddAnalysis, EvalWalksTheGraph) {
  Manager m(3);
  const Bdd f = (m.var(0) & m.var(1)) | m.var(2);
  const std::vector<char> a0{1, 1, 0};
  const std::vector<char> a1{1, 0, 0};
  const std::vector<char> a2{0, 0, 1};
  EXPECT_TRUE(f.eval(a0));
  EXPECT_FALSE(f.eval(a1));
  EXPECT_TRUE(f.eval(a2));
}

TEST(BddAnalysis, ForEachSatEnumeratesExactlyTheModels) {
  Manager m(4);
  const Bdd f = (m.var(0) | m.var(1)) & !m.var(2);
  std::size_t count = 0;
  const auto lv = levels(4);
  f.forEachSat(lv, [&](std::span<const char> bits) {
    std::vector<char> assign(bits.begin(), bits.end());
    EXPECT_TRUE(f.eval(assign));
    ++count;
  });
  EXPECT_DOUBLE_EQ(static_cast<double>(count), f.satCount(lv));
}

TEST(BddGc, CollectionPreservesLiveFunctionsAndFreesDead) {
  Manager m(16);
  Bdd keep = m.var(0);
  for (Var v = 1; v < 16; ++v) keep = (keep & m.var(v)) | m.var(v - 1);
  const std::size_t keepNodes = keep.nodeCount();
  {
    // Build and drop a lot of garbage.
    Bdd junk = m.trueBdd();
    for (Var v = 0; v < 16; ++v) junk ^= m.var(v) & m.var((v + 5) % 16);
  }
  const std::size_t before = m.stats().liveNodes;
  m.collectGarbage();
  EXPECT_LT(m.stats().liveNodes, before);
  EXPECT_GE(m.stats().gcRuns, 1u);
  // The kept function is untouched and still canonical.
  EXPECT_EQ(keep.nodeCount(), keepNodes);
  Bdd again = m.var(0);
  for (Var v = 1; v < 16; ++v) again = (again & m.var(v)) | m.var(v - 1);
  EXPECT_TRUE(again == keep);
}

TEST(BddGc, AggressiveThresholdKeepsResultsCorrect) {
  Manager m(12);
  m.setGcThreshold(64);  // collect almost constantly
  stsyn::util::Rng rng(99);
  Bdd acc = m.falseBdd();
  for (int i = 0; i < 200; ++i) {
    const Var v = static_cast<Var>(rng.below(12));
    const Var w = static_cast<Var>(rng.below(12));
    acc = (acc ^ m.var(v)) | (m.var(w) & !m.var(v));
  }
  // Verify against brute-force evaluation on every assignment.
  const auto lv = levels(12);
  double models = 0;
  for (unsigned bits = 0; bits < (1u << 12); ++bits) {
    std::vector<char> assign(12);
    for (Var v = 0; v < 12; ++v) assign[v] = (bits >> v) & 1;
    if (acc.eval(assign)) models += 1;
  }
  EXPECT_DOUBLE_EQ(acc.satCount(lv), models);
}

TEST(BddCube, CubeOfUnsortedVarsIsSortedConjunction) {
  Manager m(6);
  const std::vector<Var> vs{4, 1, 3};
  const Bdd c = m.cube(vs);
  EXPECT_TRUE(c == (m.var(1) & m.var(3) & m.var(4)));
}

TEST(BddCube, DuplicateVarsAreDeduplicated) {
  // Regression: a duplicate used to chain two nodes of the same variable,
  // producing a structurally invalid diagram (debug builds asserted).
  Manager m(6);
  const std::vector<Var> dup{3, 1, 3, 3, 1};
  const Bdd c = m.cube(dup);
  EXPECT_TRUE(c == (m.var(1) & m.var(3)));
  EXPECT_EQ(c.nodeCount(), 2u);
  // Quantifying over a duplicated-variable cube behaves like the deduped one.
  const Bdd f = (m.var(1) & m.var(2)) | m.var(3);
  const std::vector<Var> q{1, 1};
  EXPECT_TRUE(f.exists(m.cube(q)) == (m.var(2) | m.var(3)));
}

TEST(BddGc, CacheSweepEvictsEntriesWithOutOfRangeResults) {
  // Regression: the sweep bounds-checked the operand slots a/b/c against
  // the mark table but indexed marks_[e.result] unchecked, an
  // out-of-bounds read for any entry whose result slot carries a stale or
  // non-node payload. Plant exactly that entry and collect.
  Manager m(4);
  const Bdd keep = m.var(0) & m.var(1);
  ManagerTestAccess::plantCacheEntry(m, /*a=*/1, /*b=*/1, /*c=*/1,
                                     /*result=*/NodeIndex{1} << 30);
  m.collectGarbage();
  EXPECT_TRUE(ManagerTestAccess::frontSlotEvicted(m));
  // The manager still computes correctly after the sweep.
  EXPECT_EQ(keep & m.var(0), keep);
}

TEST(BddGc, CacheSweepEvictsEntriesWhoseResultDied) {
  Manager m(4);
  {
    const Bdd dead = m.var(2) ^ m.var(3);
    ManagerTestAccess::plantCacheEntry(m, /*a=*/1, /*b=*/1, /*c=*/1,
                                       dead.raw());
  }  // handle dropped: the planted result node is now garbage
  m.collectGarbage();
  EXPECT_TRUE(ManagerTestAccess::frontSlotEvicted(m));
}

constexpr std::size_t kInitialCache = std::size_t{1} << 12;
constexpr std::size_t kCacheCap = std::size_t{1} << 20;

/// One window of `size` distinct misses, each followed by a store: 0% hit
/// rate at full store pressure, the signature the growth rule acts on.
/// Keys start at `base` so successive windows do not collide.
void thrashingWindow(Manager& m, NodeIndex base) {
  const std::size_t size = ManagerTestAccess::cacheEntries(m);
  for (NodeIndex k = 0; k < size; ++k) {
    ManagerTestAccess::missAndStore(m, base + 2 * k, 2 * k + 1, 2 * k);
  }
}

TEST(BddCache, DoublingKeepsEveryStoredEntryFindable) {
  Manager m(4);
  thrashingWindow(m, 4);
  const auto before = ManagerTestAccess::storedEntries(m);
  ASSERT_GT(before.size(), kInitialCache / 2);  // a well-filled table
  ManagerTestAccess::decideGrowth(m);
  ASSERT_EQ(ManagerTestAccess::cacheEntries(m), 2 * kInitialCache);
  // Nothing is lost or duplicated by the move, and every entry is still
  // found by a probe that masks with the doubled size.
  EXPECT_EQ(ManagerTestAccess::storedEntries(m).size(), before.size());
  for (const auto& [a, b, result] : before) {
    NodeIndex out = 0;
    ASSERT_TRUE(ManagerTestAccess::lookup(m, a, b, out)) << a << "," << b;
    EXPECT_EQ(out, result);
  }
}

TEST(BddCache, SizeStaysAPowerOfTwoBetweenStartAndCap) {
  Manager m(4);
  EXPECT_EQ(ManagerTestAccess::cacheEntries(m), kInitialCache);
  NodeIndex base = 4;
  for (int window = 0; window < 9; ++window) {
    thrashingWindow(m, base);
    base += 2 * static_cast<NodeIndex>(ManagerTestAccess::cacheEntries(m));
    ManagerTestAccess::decideGrowth(m);
    const std::size_t size = ManagerTestAccess::cacheEntries(m);
    EXPECT_TRUE(std::has_single_bit(size)) << size;
    EXPECT_GE(size, kInitialCache);
    EXPECT_LE(size, kCacheCap);
  }
  // Eight doublings reach the cap; the ninth window must not pass it.
  EXPECT_EQ(ManagerTestAccess::cacheEntries(m), kCacheCap);
}

TEST(BddCache, HealthyOrColdWindowDoesNotGrow) {
  Manager healthy(4);
  thrashingWindow(healthy, 4);
  ManagerTestAccess::decideGrowth(healthy);  // closes the thrashing window
  ASSERT_EQ(ManagerTestAccess::cacheEntries(healthy), 2 * kInitialCache);
  // Store pressure over half the table, then re-probe what is stored:
  // the window's hit rate is well above the 40% the rule calls healthy.
  const auto s0 = healthy.stats();
  for (NodeIndex k = 0; k <= kInitialCache; ++k) {
    ManagerTestAccess::missAndStore(healthy, 2 * k + 3, 1, 2);
  }
  const auto stored = ManagerTestAccess::storedEntries(healthy);
  for (int round = 0; round < 3; ++round) {
    for (const auto& [a, b, result] : stored) {
      NodeIndex out;
      ASSERT_TRUE(ManagerTestAccess::lookup(healthy, a, b, out));
    }
  }
  const auto& s1 = healthy.stats();
  const std::size_t lookups = s1.cacheLookups - s0.cacheLookups;
  ASSERT_GE(lookups, 2 * kInitialCache);
  ASSERT_GE((s1.cacheHits - s0.cacheHits) * 5, lookups * 2);
  ASSERT_GE((s1.cacheStores - s0.cacheStores) * 2, 2 * kInitialCache);
  ManagerTestAccess::decideGrowth(healthy);
  EXPECT_EQ(ManagerTestAccess::cacheEntries(healthy), 2 * kInitialCache);

  // Cold: plenty of probes, all missing, but too few stores to fill half
  // the table — the misses are first touches, not conflicts.
  Manager cold(4);
  for (NodeIndex k = 0; k < 4 * kInitialCache; ++k) {
    NodeIndex out;
    EXPECT_FALSE(ManagerTestAccess::lookup(cold, 2 * k + 2, 1, out));
  }
  for (NodeIndex k = 0; k < kInitialCache / 4; ++k) {
    ManagerTestAccess::missAndStore(cold, 2 * k + 2, 3, 2);
  }
  ManagerTestAccess::decideGrowth(cold);
  EXPECT_EQ(ManagerTestAccess::cacheEntries(cold), kInitialCache);
}

std::size_t cacheAfterSynthesis(const stsyn::protocol::Protocol& p) {
  const stsyn::symbolic::Encoding enc(p);
  const stsyn::symbolic::SymbolicProtocol sp(enc);
  const stsyn::core::StrongResult r = stsyn::core::addStrongConvergence(sp);
  EXPECT_TRUE(r.success) << p.name;
  return ManagerTestAccess::cacheEntries(sp.manager());
}

TEST(BddCache, GrowsWithTheWorkUpToTheCap) {
  // Growth is decided at public operation boundaries once a table's worth
  // of stores has accumulated. A small study stays small; a large one
  // grows, never past the cap.
  const std::size_t ring =
      cacheAfterSynthesis(stsyn::casestudies::tokenRing(4, 3));
  EXPECT_LE(ring, std::size_t{1} << 16);
  const std::size_t coloring =
      cacheAfterSynthesis(stsyn::casestudies::coloring(20));
  EXPECT_GT(coloring, kInitialCache);
  EXPECT_LE(coloring, kCacheCap);
}

TEST(BddThreads, BindToCurrentThreadAdoptsAManagerBuiltElsewhere) {
  // The sanctioned handoff: build on one thread, join, re-pin, then use
  // freely — exactly what the schedule portfolio does per instance.
  std::unique_ptr<Manager> m;
  Bdd f;
  std::thread builder([&] {
    m = std::make_unique<Manager>(3);
    f = m->var(1) & m->var(2);
  });
  builder.join();
  m->bindToCurrentThread();
  EXPECT_EQ(f, m->var(1) & m->var(2));
  const Bdd g = f | m->var(0);
  EXPECT_FALSE(g.isFalse());
}

#ifndef NDEBUG
TEST(BddThreadsDeathTest, OffThreadHandleCopyAssertsInDebugBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Copying a handle bumps the owning manager's ref counts — the widest
  // cross-thread mutation surface, and the one the confinement assert
  // must catch.
  EXPECT_DEATH(
      {
        Manager m(2);
        const Bdd f = m.var(0);
        std::thread t([&] {
          const Bdd copy = f;  // ref() off the owning thread
          (void)copy;
        });
        t.join();
      },
      "thread-confined");
}
#endif

}  // namespace
