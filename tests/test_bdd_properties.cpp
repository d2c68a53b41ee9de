// Property tests for the BDD substrate: random expression workloads checked
// against an exhaustive truth-table oracle, across GC pressure levels.
#include <gtest/gtest.h>

#include <bitset>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"

namespace {

using stsyn::bdd::Bdd;
using stsyn::bdd::Manager;
using stsyn::bdd::Var;
using stsyn::util::Rng;

constexpr Var kVars = 10;
using Table = std::bitset<1 << kVars>;  // truth table over kVars inputs

/// A random function represented both as a BDD and as its truth table.
struct Pair {
  Bdd bdd;
  Table table;
};

Table tableOfVar(Var v) {
  Table t;
  for (unsigned a = 0; a < (1u << kVars); ++a) t[a] = (a >> v) & 1;
  return t;
}

/// Builds a random pair over the shared manager using `ops` random
/// operations (binary connectives, negation, quantification). When
/// `reorderEvery` is positive, runs a full sifting pass every that many
/// operations, with the whole pool held live — reordering must preserve
/// every handle.
Pair randomPair(Manager& m, Rng& rng, int ops, int reorderEvery = 0) {
  std::vector<Pair> pool;
  for (Var v = 0; v < kVars; ++v) pool.push_back({m.var(v), tableOfVar(v)});
  pool.push_back({m.trueBdd(), Table{}.set()});
  pool.push_back({m.falseBdd(), Table{}});

  for (int i = 0; i < ops; ++i) {
    if (reorderEvery > 0 && i > 0 && i % reorderEvery == 0) m.reorderNow();
    const Pair& a = pool[rng.below(pool.size())];
    const Pair& b = pool[rng.below(pool.size())];
    Pair r;
    switch (rng.below(5)) {
      case 0:
        r = {a.bdd & b.bdd, a.table & b.table};
        break;
      case 1:
        r = {a.bdd | b.bdd, a.table | b.table};
        break;
      case 2:
        r = {a.bdd ^ b.bdd, a.table ^ b.table};
        break;
      case 3:
        r = {!a.bdd, ~a.table};
        break;
      default: {
        const Var q = static_cast<Var>(rng.below(kVars));
        const std::vector<Var> qs{q};
        Table t;
        for (unsigned asg = 0; asg < (1u << kVars); ++asg) {
          t[asg] = a.table[asg | (1u << q)] || a.table[asg & ~(1u << q)];
        }
        r = {a.bdd.exists(m.cube(qs)), t};
        break;
      }
    }
    pool.push_back(std::move(r));
  }
  return pool.back();
}

class BddRandomWorkload
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(BddRandomWorkload, MatchesTruthTableOracle) {
  const auto [seed, gcThreshold] = GetParam();
  Manager m(kVars);
  if (gcThreshold != 0) m.setGcThreshold(gcThreshold);
  Rng rng(seed);
  const Pair p = randomPair(m, rng, 120);

  // Full equivalence on all 2^kVars assignments.
  std::vector<char> assign(kVars);
  double models = 0;
  for (unsigned a = 0; a < (1u << kVars); ++a) {
    for (Var v = 0; v < kVars; ++v) assign[v] = (a >> v) & 1;
    ASSERT_EQ(p.bdd.eval(assign), p.table[a]) << "assignment " << a;
    models += p.table[a] ? 1 : 0;
  }
  std::vector<Var> lv(kVars);
  for (Var v = 0; v < kVars; ++v) lv[v] = v;
  EXPECT_DOUBLE_EQ(p.bdd.satCount(lv), models);

  // Canonicity: rebuilding from the truth table gives the identical node.
  Bdd rebuilt = m.falseBdd();
  for (unsigned a = 0; a < (1u << kVars); ++a) {
    if (!p.table[a]) continue;
    Bdd minterm = m.trueBdd();
    for (Var v = 0; v < kVars; ++v) {
      minterm &= ((a >> v) & 1) ? m.var(v) : m.nvar(v);
    }
    rebuilt |= minterm;
  }
  EXPECT_TRUE(rebuilt == p.bdd);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndGcPressure, BddRandomWorkload,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Values(std::size_t{0} /* default */,
                                         std::size_t{128} /* aggressive */)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_gc" : "_nogc");
    });

/// Same oracle battery, but with sifting passes injected mid-workload
/// (every 25 operations) while the whole pool is referenced, under GC
/// pressure. Every function must survive the in-place pool mutations.
class BddReorderWorkload
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(BddReorderWorkload, MatchesTruthTableOracleAcrossSifting) {
  const auto [seed, gcThreshold] = GetParam();
  Manager m(kVars);
  if (gcThreshold != 0) m.setGcThreshold(gcThreshold);
  Rng rng(seed);
  const Pair p = randomPair(m, rng, 120, /*reorderEvery=*/25);
  m.reorderNow();  // and once more with only the final function held

  std::vector<char> assign(kVars);
  double models = 0;
  for (unsigned a = 0; a < (1u << kVars); ++a) {
    for (Var v = 0; v < kVars; ++v) assign[v] = (a >> v) & 1;
    ASSERT_EQ(p.bdd.eval(assign), p.table[a]) << "assignment " << a;
    models += p.table[a] ? 1 : 0;
  }
  std::vector<Var> lv(kVars);
  for (Var v = 0; v < kVars; ++v) lv[v] = v;
  EXPECT_DOUBLE_EQ(p.bdd.satCount(lv), models);

  // Canonicity within the (reordered) manager: rebuilding from the truth
  // table must reach the identical node.
  Bdd rebuilt = m.falseBdd();
  for (unsigned a = 0; a < (1u << kVars); ++a) {
    if (!p.table[a]) continue;
    Bdd minterm = m.trueBdd();
    for (Var v = 0; v < kVars; ++v) {
      minterm &= ((a >> v) & 1) ? m.var(v) : m.nvar(v);
    }
    rebuilt |= minterm;
  }
  EXPECT_TRUE(rebuilt == p.bdd);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndGcPressure, BddReorderWorkload,
    ::testing::Combine(::testing::Values(11u, 12u, 13u, 14u, 15u, 16u),
                       ::testing::Values(std::size_t{0} /* default */,
                                         std::size_t{128} /* aggressive */)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_gc" : "_nogc");
    });

/// Auto-reordering wired through maybeGc(): same oracle, reorder decisions
/// taken by the manager itself.
class BddAutoReorderWorkload : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BddAutoReorderWorkload, MatchesTruthTableOracle) {
  Manager m(kVars);
  m.setGcThreshold(256);
  m.setReorderThreshold(32);
  m.enableAutoReorder();
  Rng rng(GetParam());
  const Pair p = randomPair(m, rng, 150);

  std::vector<char> assign(kVars);
  for (unsigned a = 0; a < (1u << kVars); ++a) {
    for (Var v = 0; v < kVars; ++v) assign[v] = (a >> v) & 1;
    ASSERT_EQ(p.bdd.eval(assign), p.table[a]) << "assignment " << a;
  }
  EXPECT_GE(m.stats().reorderRuns, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddAutoReorderWorkload,
                         ::testing::Range<std::uint64_t>(300, 308));

class BddAlgebraicLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddAlgebraicLaws, HoldOnRandomOperands) {
  Manager m(kVars);
  Rng rng(GetParam());
  const Bdd a = randomPair(m, rng, 40).bdd;
  const Bdd b = randomPair(m, rng, 40).bdd;
  const Bdd c = randomPair(m, rng, 40).bdd;

  // De Morgan, distribution, absorption, double negation, xor algebra.
  EXPECT_TRUE((!(a & b)) == ((!a) | (!b)));
  EXPECT_TRUE((!(a | b)) == ((!a) & (!b)));
  EXPECT_TRUE((a & (b | c)) == ((a & b) | (a & c)));
  EXPECT_TRUE((a | (b & c)) == ((a | b) & (a | c)));
  EXPECT_TRUE((a & (a | b)) == a);
  EXPECT_TRUE((a | (a & b)) == a);
  EXPECT_TRUE((!(!a)) == a);
  EXPECT_TRUE((a ^ b) == ((a | b) & (!(a & b))));
  EXPECT_TRUE((a ^ a).isFalse());

  // Quantification laws.
  std::vector<Var> qs{2, 5, 7};
  const Bdd cube = m.cube(qs);
  EXPECT_TRUE(a.implies(a.exists(cube)));
  EXPECT_TRUE((a | b).exists(cube) == (a.exists(cube) | b.exists(cube)));
  EXPECT_TRUE(a.andExists(b, cube) == (a & b).exists(cube));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddAlgebraicLaws,
                         ::testing::Range<std::uint64_t>(100, 112));

class BddRenameRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddRenameRoundTrip, UpThenDownIsIdentity) {
  // Interleaved layout, like the protocol encoding: even levels are
  // "current", odd levels "next".
  Manager m(kVars);
  Rng rng(GetParam());
  std::vector<Var> evens;
  std::vector<Var> odds;
  std::vector<Var> up(kVars);
  std::vector<Var> down(kVars);
  for (Var v = 0; v < kVars; ++v) up[v] = down[v] = v;
  for (Var v = 0; v + 1 < kVars; v += 2) {
    evens.push_back(v);
    odds.push_back(v + 1);
    up[v] = v + 1;
    down[v + 1] = v;
  }
  const Bdd f = randomPair(m, rng, 60).bdd;
  const Bdd onEvens = f.exists(m.cube(odds));  // support only even levels
  const Bdd shifted = onEvens.rename(up);
  // No even variable is left in the support.
  EXPECT_TRUE(shifted.exists(m.cube(evens)) == shifted);
  EXPECT_TRUE(shifted.rename(down) == onEvens);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRenameRoundTrip,
                         ::testing::Range<std::uint64_t>(200, 210));

}  // namespace
