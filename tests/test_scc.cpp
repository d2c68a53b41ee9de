// Tests for symbolic SCC detection (lockstep with cycle-core trimming),
// cross-checked against explicit Tarjan on whole protocols and on random
// relations, and for the heuristic's seed-pruned removal of cyclic groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>

#include "protocol/builder.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "explicitstate/graph.hpp"
#include "obs/trace.hpp"
#include "symbolic/decode.hpp"
#include "symbolic/scc.hpp"
#include "util/rng.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;
using symbolic::Encoding;
using symbolic::SymbolicProtocol;

/// Canonical form of an SCC partition: sorted list of sorted state lists.
std::vector<std::vector<std::uint64_t>> canonical(
    const Encoding& enc, const std::vector<Bdd>& components) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const Bdd& c : components) out.push_back(symbolic::decodeStates(enc, c));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<std::uint64_t>> canonicalExplicit(
    std::vector<std::vector<explicitstate::StateId>> components) {
  std::vector<std::vector<std::uint64_t>> out;
  for (auto& c : components) out.emplace_back(c.begin(), c.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Builds a symbolic relation from explicit edges.
Bdd relationOf(const Encoding& enc, const SymbolicProtocol& sp,
               std::span<const std::pair<std::uint64_t, std::uint64_t>> edges) {
  Bdd rel = enc.manager().falseBdd();
  for (const auto& [from, to] : edges) {
    rel |= enc.stateBdd(symbolic::unpackState(enc.proto(), from)) &
           sp.onNext(enc.stateBdd(symbolic::unpackState(enc.proto(), to)));
  }
  return rel;
}

/// One traced `nontrivial_sccs` span: whether it was seeded and how many
/// `trim_to_core` children it holds.
struct TracedSearch {
  bool seeded = false;
  std::size_t trims = 0;
};

/// Runs `run` under the tracer and reads back its SCC searches.
template <class Run>
std::vector<TracedSearch> tracedSearches(Run&& run) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  run();
  tracer.disable();
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  tracer.clear();
  std::vector<TracedSearch> out;
  for (const obs::TraceEvent& e : events) {
    if (e.name != "nontrivial_sccs") continue;
    TracedSearch search;
    search.seeded = std::any_of(e.args.begin(), e.args.end(), [](auto& a) {
      return a.key == "seeded" && a.json == "true";
    });
    search.trims = std::count_if(events.begin(), events.end(), [&](auto& t) {
      return t.name == "trim_to_core" && t.tid == e.tid &&
             t.startNs >= e.startNs &&
             t.startNs + t.durNs <= e.startNs + e.durNs;
    });
    out.push_back(search);
  }
  return out;
}

protocol::Protocol counterProtocol(int n) {
  protocol::ProtocolBuilder b("counter");
  const protocol::VarId x = b.variable("x", n);
  b.process("P", {x}, {x});
  b.invariant(protocol::blit(false));  // whole space is "outside I"
  return b.build();
}

TEST(SymbolicScc, HandBuiltComponents) {
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> edges{
      {0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {5, 6}, {6, 5}, {7, 7}};
  const Bdd rel = relationOf(enc, sp, edges);
  const auto result = symbolic::nontrivialSccs(sp, rel, enc.validCur());
  EXPECT_EQ(canonical(enc, result.components),
            (std::vector<std::vector<std::uint64_t>>{
                {1, 2, 3}, {5, 6}, {7}}));
  EXPECT_TRUE(symbolic::hasCycle(sp, rel, enc.validCur()));
}

TEST(SymbolicScc, AcyclicGraphHasNoComponents) {
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> edges{
      {0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}, {4, 7}};
  const Bdd rel = relationOf(enc, sp, edges);
  EXPECT_TRUE(symbolic::nontrivialSccs(sp, rel, enc.validCur())
                  .components.empty());
  EXPECT_FALSE(symbolic::hasCycle(sp, rel, enc.validCur()));
}

TEST(SymbolicScc, DomainRestrictionBreaksCycles) {
  const protocol::Protocol p = counterProtocol(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> edges{
      {0, 1}, {1, 0}, {2, 3}, {3, 2}};
  const Bdd rel = relationOf(enc, sp, edges);
  const Bdd domain =
      enc.validCur() & !enc.stateBdd(std::vector<int>{1});  // drop state 1
  const auto result = symbolic::nontrivialSccs(sp, rel, domain);
  EXPECT_EQ(canonical(enc, result.components),
            (std::vector<std::vector<std::uint64_t>>{{2, 3}}));
}

class SymbolicSccRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymbolicSccRandom, AgreesWithTarjanOnRandomGraphs) {
  const int n = 24;
  const protocol::Protocol p = counterProtocol(n);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);

  util::Rng rng(GetParam());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  const std::size_t edgeCount = 30 + rng.below(40);
  for (std::size_t i = 0; i < edgeCount; ++i) {
    edges.emplace_back(rng.below(n), rng.below(n));
  }

  const Bdd rel = relationOf(enc, sp, edges);
  const auto symbolicSccs =
      canonical(enc, symbolic::nontrivialSccs(sp, rel, enc.validCur())
                         .components);

  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
      explicitEdges(edges.begin(), edges.end());
  const auto ts = explicitstate::fromEdges(space, explicitEdges);
  const std::vector<bool> all(n, true);
  const auto tarjanSccs =
      canonicalExplicit(explicitstate::nontrivialSccs(ts, all));

  EXPECT_EQ(symbolicSccs, tarjanSccs) << "seed " << GetParam();
  EXPECT_EQ(symbolic::hasCycle(sp, rel, enc.validCur()),
            !tarjanSccs.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicSccRandom,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(SymbolicScc, MatchingRecoveryCyclesMatchTarjan) {
  // A realistic relation: the weakest candidate recovery relation of the
  // matching protocol restricted to ¬I — the exact graph the heuristic
  // feeds to Identify_Resolve_Cycles.
  const protocol::Protocol p = casestudies::matching(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  Bdd rel = enc.manager().falseBdd();
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    const Bdd all = sp.candidates(j);
    rel |= all & !sp.groupExpand(j, all & sp.invariant());
  }
  const Bdd notI = enc.validCur() & !sp.invariant();
  rel = sp.restrictRel(rel, notI);

  const auto symbolicSccs = canonical(
      enc, symbolic::nontrivialSccs(sp, rel, notI).components);

  const explicitstate::StateSpace space(p);
  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>> edges;
  for (const auto& [from, to] : symbolic::decodeRelation(enc, rel)) {
    edges.emplace_back(from, to);
  }
  const auto ts = explicitstate::fromEdges(space, edges);
  std::vector<bool> domain(space.size());
  for (explicitstate::StateId s = 0; s < space.size(); ++s) {
    domain[s] = !space.inInvariant(s);
  }
  EXPECT_EQ(symbolicSccs,
            canonicalExplicit(explicitstate::nontrivialSccs(ts, domain)));
  EXPECT_FALSE(symbolicSccs.empty());  // matching genuinely has cycles
}

TEST(SymbolicScc, TokenRingPaperCycleIsFound) {
  // Section IV: adding the recovery action x1 = x0+1 -> x1 := x0-1 to the
  // TR protocol creates a non-progress cycle through <1,2,1,0>.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);

  // recovery action of P1 (group-closed by construction: reads x0, x1)
  Bdd recovery = enc.manager().falseBdd();
  for (int x0 = 0; x0 < 3; ++x0) {
    const int x1 = (x0 + 1) % 3;
    const int target = (x0 + 2) % 3;  // x0 - 1 mod 3
    recovery |= enc.curValue(0, x0) & enc.curValue(1, x1) &
                enc.nextValue(1, target) & enc.unchanged(0) &
                enc.unchanged(2) & enc.unchanged(3);
  }
  const Bdd rel = sp.protocolRelation() | (recovery & enc.validCur());
  const Bdd notI = enc.validCur() & !sp.invariant();
  const auto result =
      symbolic::nontrivialSccs(sp, sp.restrictRel(rel, notI), notI);
  ASSERT_FALSE(result.components.empty());
  const Bdd paperState = enc.stateBdd(std::vector<int>{1, 2, 1, 0});
  bool found = false;
  for (const Bdd& c : result.components) {
    if (!(c & paperState).isFalse()) found = true;
  }
  EXPECT_TRUE(found) << "paper's cycle state <1,2,1,0> not in any SCC";
}

/// cycleCone over base ∪ delta (as in diagnose).
Bdd coneOf(const SymbolicProtocol& sp, const Bdd& base, const Bdd& delta,
           const Bdd& domain) {
  return symbolic::cycleCone(sp, base | delta, delta, domain);
}

TEST(IncrementalAcyclicity, CertainlyAcyclicWhenConeStaysClear) {
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  // base: 0 -> 1 -> 2 (acyclic); delta: 2 -> 3. Cone of {3} never meets
  // delta source {2}.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> baseEdges{
      {0, 1}, {1, 2}};
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> deltaEdges{
      {2, 3}};
  const Bdd base = relationOf(enc, sp, baseEdges);
  const Bdd delta = relationOf(enc, sp, deltaEdges);
  EXPECT_TRUE(coneOf(sp, base, delta, enc.validCur()).isFalse());
}

TEST(IncrementalAcyclicity, InconclusiveWhenDeltaClosesACycle) {
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> baseEdges{
      {1, 2}, {2, 3}};
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> deltaEdges{
      {3, 1}};
  const Bdd base = relationOf(enc, sp, baseEdges);
  const Bdd delta = relationOf(enc, sp, deltaEdges);
  const Bdd cone = coneOf(sp, base, delta, enc.validCur());
  EXPECT_FALSE(cone.isFalse());
  // And the full check agrees there IS a cycle.
  EXPECT_TRUE(
      symbolic::hasCycle(sp, base | delta, enc.validCur()));
  // The cone is exactly the closed cycle.
  EXPECT_EQ(symbolic::decodeStates(enc, cone),
            (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(IncrementalAcyclicity, ConservativeOnNearMisses) {
  // delta target reaches a delta source but the closing edge goes
  // elsewhere: the cone must be non-empty ("inconclusive"), and the full
  // check must confirm acyclicity — i.e. the test errs only on the safe
  // side.
  const protocol::Protocol p = counterProtocol(8);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> baseEdges{
      {1, 2}, {2, 3}};
  // two delta edges: 0 -> 1 and 3 -> 4: cone of {1,4} reaches source 3
  // (via 1->2->3) but 3's edge goes to 4, closing nothing.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> deltaEdges{
      {0, 1}, {3, 4}};
  const Bdd base = relationOf(enc, sp, baseEdges);
  const Bdd delta = relationOf(enc, sp, deltaEdges);
  const Bdd cone = coneOf(sp, base, delta, enc.validCur());
  EXPECT_FALSE(cone.isFalse());
  EXPECT_FALSE(
      symbolic::hasCycle(sp, base | delta, enc.validCur()));
  // The cone is the path 1 -> 2 -> 3, whose cycle core is empty.
  EXPECT_EQ(symbolic::decodeStates(enc, cone),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(symbolic::hasCycle(sp, base | delta, cone));
  EXPECT_TRUE(symbolic::nontrivialSccs(sp, base | delta, cone)
                  .components.empty());
}

TEST(IncrementalAcyclicity, SelfLoopDeltaAndOutOfDomainDelta) {
  const protocol::Protocol p = counterProtocol(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd base = enc.manager().falseBdd();
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> loop{{2, 2}};
  const Bdd selfLoop = relationOf(enc, sp, loop);
  EXPECT_FALSE(coneOf(sp, base, selfLoop, enc.validCur()).isFalse());
  // Same delta, but the domain excludes state 2: the loop is irrelevant.
  const Bdd domain = enc.validCur() & !enc.stateBdd(std::vector<int>{2});
  EXPECT_TRUE(coneOf(sp, base, selfLoop, domain).isFalse());
}

class CycleConeRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CycleConeRandom, ConeSccsAgreeWithTarjanOnWholeDomain) {
  // A random acyclic base (edges only ascend a random ranking of the
  // states) plus a random delta that may close cycles, self-loops
  // included: the cone must hold exactly the components Tarjan finds over
  // the whole domain, with or without pivots seeded from delta's edges.
  const int n = 24;
  const protocol::Protocol p = counterProtocol(n);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);

  util::Rng rng(GetParam() * 7 + 11);
  const std::vector<std::size_t> rank = rng.permutation(n);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> baseEdges;
  const std::size_t baseCount = 20 + rng.below(30);
  for (std::size_t i = 0; i < baseCount; ++i) {
    const std::uint64_t a = rng.below(n);
    const std::uint64_t b = rng.below(n);
    if (rank[a] < rank[b]) baseEdges.emplace_back(a, b);
    if (rank[b] < rank[a]) baseEdges.emplace_back(b, a);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> deltaEdges;
  const std::size_t deltaCount = 1 + rng.below(4);
  for (std::size_t i = 0; i < deltaCount; ++i) {
    deltaEdges.emplace_back(rng.below(n), rng.below(n));
  }
  const Bdd base = relationOf(enc, sp, baseEdges);
  const Bdd delta = relationOf(enc, sp, deltaEdges);
  ASSERT_FALSE(symbolic::hasCycle(sp, base, enc.validCur()));

  const Bdd combined = base | delta;
  std::size_t steps = 0;
  const Bdd cone =
      symbolic::cycleCone(sp, combined, delta, enc.validCur(), &steps);
  const auto coneSccs = canonical(
      enc, symbolic::nontrivialSccs(sp, combined, cone).components);
  // The live edges the heuristic passes: every cycle takes a delta edge.
  const Bdd live = sp.restrictRel(delta, cone);
  const auto seededSccs = canonical(
      enc, symbolic::nontrivialSccs(sp, combined, cone, &live).components);

  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
      explicitEdges(baseEdges.begin(), baseEdges.end());
  explicitEdges.insert(explicitEdges.end(), deltaEdges.begin(),
                       deltaEdges.end());
  const auto ts = explicitstate::fromEdges(space, explicitEdges);
  const std::vector<bool> all(n, true);
  const auto tarjanSccs =
      canonicalExplicit(explicitstate::nontrivialSccs(ts, all));

  EXPECT_EQ(coneSccs, tarjanSccs) << "seed " << GetParam();
  EXPECT_EQ(seededSccs, tarjanSccs) << "seed " << GetParam();
  EXPECT_EQ(symbolic::hasCycle(sp, combined, cone), !tarjanSccs.empty())
      << "seed " << GetParam();
  // Wrong live edges must show: without its internal live edges a
  // component goes unfound, and every other one is still found.
  for (const auto& component : tarjanSccs) {
    Bdd states = enc.manager().falseBdd();
    for (const std::uint64_t s : component) {
      states |= enc.stateBdd(symbolic::unpackState(enc.proto(), s));
    }
    const Bdd missing = live.minus(enc.andNext(live & states, states));
    auto others = tarjanSccs;
    std::erase(others, component);
    EXPECT_EQ(
        canonical(enc,
                  symbolic::nontrivialSccs(sp, combined, cone, &missing)
                      .components),
        others)
        << "seed " << GetParam();
  }
  // An empty cone certifies acyclicity. With one delta edge u -> v the
  // cone is empty exactly when v cannot reach u, i.e. when no cycle
  // exists; with several edges a non-empty cone may still be acyclic.
  if (cone.isFalse()) {
    EXPECT_TRUE(tarjanSccs.empty()) << "seed " << GetParam();
    EXPECT_GT(steps, 0u);
  }
  if (deltaEdges.size() == 1) {
    EXPECT_EQ(cone.isFalse(), tarjanSccs.empty()) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleConeRandom,
                         ::testing::Range<std::uint64_t>(0, 24));

/// Two variables, one process that cannot read y: each of P's groups
/// holds one transition per value of y.
protocol::Protocol groupedProtocol() {
  protocol::ProtocolBuilder b("grouped");
  const protocol::VarId x = b.variable("x", 6);
  b.variable("y", 3);
  b.process("P", {x}, {x});
  b.invariant(protocol::blit(false));  // whole space is "outside I"
  return b.build();
}

/// The transitions of a relation, packed, for readable failure messages.
std::vector<std::pair<std::uint64_t, std::uint64_t>> edgesOf(
    const Encoding& enc, const Bdd& rel) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& t : symbolic::decodeRelation(enc, rel)) {
    out.emplace_back(t.from, t.to);
  }
  return out;
}

/// Tarjan's non-trivial SCCs of a symbolic relation over the whole space.
std::vector<std::vector<explicitstate::StateId>> tarjanOf(
    const Encoding& enc, const explicitstate::StateSpace& space,
    const Bdd& rel) {
  const auto ts = explicitstate::fromEdges(space, edgesOf(enc, rel));
  return explicitstate::nontrivialSccs(ts,
                                       std::vector<bool>(space.size(), true));
}

TEST(PrunedComponentLoop, RemovesWhatFullEnumerationAndTarjanRemove) {
  // Random base relations with planted cycles, plus a group increment of
  // P. Removing the groups with an edge inside a component, with the
  // live group edges shrinking as groups fall, must remove exactly what the
  // removal over every component of an unseeded search removes, and
  // what the groups with an edge inside a Tarjan SCC say. Half the bases
  // also carry a cycle of their own, which takes no group edge. Many of
  // these searches meet a trivial pivot and trim on demand from then on;
  // the floor keeps that path under both oracles.
  const protocol::Protocol p = groupedProtocol();
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);
  const std::uint64_t n = space.size();
  const Bdd all = enc.validCur();
  auto stateOf = [&](std::uint64_t s) {
    return enc.stateBdd(symbolic::unpackState(p, s));
  };

  std::size_t removing = 0;
  std::size_t surviving = 0;
  std::size_t pruned = 0;
  std::size_t trimming = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    util::Rng rng(seed * 31 + 1009);
    const std::vector<std::size_t> rank = rng.permutation(n);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> baseEdges;
    const std::size_t baseCount = 10 + rng.below(20);
    for (std::size_t i = 0; i < baseCount; ++i) {
      const std::uint64_t a = rng.below(n);
      const std::uint64_t b = rng.below(n);
      if (rank[a] < rank[b]) baseEdges.emplace_back(a, b);
    }
    // Group members that descend the ranking, each closed into a cycle by
    // a planted ascending base edge with probability 3/4.
    Bdd members = enc.manager().falseBdd();
    const std::size_t memberCount = 2 + rng.below(5);
    for (std::size_t i = 0; i < memberCount; ++i) {
      std::vector<int> from = symbolic::unpackState(p, rng.below(n));
      std::vector<int> to = from;
      to[0] = static_cast<int>((from[0] + 1 + rng.below(5)) % 6);
      const std::uint64_t a = symbolic::packState(p, from);
      const std::uint64_t b = symbolic::packState(p, to);
      members |= stateOf(a) & sp.onNext(stateOf(b));
      if (rank[b] < rank[a] && rng.below(4) != 0) baseEdges.emplace_back(b, a);
    }
    const bool baseCycle = rng.below(2) == 0;
    if (baseCycle) {
      const std::uint64_t a = rng.below(n);
      const std::uint64_t b = (a + 1 + rng.below(n - 1)) % n;
      baseEdges.emplace_back(a, b);
      baseEdges.emplace_back(b, a);
    }
    const Bdd base = relationOf(enc, sp, baseEdges);
    const Bdd groups = sp.groupExpand(0, members) & sp.candidates(0);
    const Bdd candidate = base | groups;

    // Oracle 1: every component of an unseeded search, in turn. It trims
    // its domain once and never its pieces.
    symbolic::SccResult full;
    for (const TracedSearch& t : tracedSearches([&] {
           full = symbolic::nontrivialSccs(sp, candidate, all);
         })) {
      EXPECT_EQ(t.trims, 1u) << "seed " << seed;
    }
    Bdd expected = groups;
    for (const Bdd& c : full.components) {
      const Bdd bad = expected & c & sp.onNext(c);
      if (!bad.isFalse()) expected = expected.minus(sp.groupExpand(0, bad));
    }
    // Oracle 2: the groups with an edge inside a Tarjan SCC.
    const auto tarjan = tarjanOf(enc, space, candidate);
    Bdd inside = enc.manager().falseBdd();
    for (const auto& component : tarjan) {
      Bdd states = enc.manager().falseBdd();
      for (const auto s : component) states |= stateOf(s);
      inside |= groups & states & sp.onNext(states);
    }
    EXPECT_EQ(edgesOf(enc, expected),
              edgesOf(enc, groups.minus(sp.groupExpand(0, inside))))
        << "seed " << seed;

    symbolic::SccResult visited;
    Bdd kept;
    for (const TracedSearch& t : tracedSearches([&] {
           kept = core::removeCyclicGroups(sp, 0, candidate, groups, all,
                                           &visited);
         })) {
      trimming += t.seeded && t.trims > 0 ? 1 : 0;
    }
    EXPECT_EQ(edgesOf(enc, kept), edgesOf(enc, expected)) << "seed " << seed;
    EXPECT_LE(visited.components.size(), full.components.size())
        << "seed " << seed;
    if (!baseCycle) {
      // The passes' shape: an acyclic base, searched in the cycle cone.
      const Bdd cone = symbolic::cycleCone(sp, candidate, groups, all);
      Bdd coneKept = groups;
      if (!cone.isFalse()) {
        for (const TracedSearch& t : tracedSearches([&] {
               coneKept =
                   core::removeCyclicGroups(sp, 0, candidate, groups, cone);
             })) {
          trimming += t.seeded && t.trims > 0 ? 1 : 0;
        }
      }
      EXPECT_EQ(edgesOf(enc, coneKept), edgesOf(enc, expected))
          << "seed " << seed;
    }

    // The fused trim behind hasCycle agrees with Tarjan before and after
    // the removal; over an acyclic base the survivors close no cycle.
    EXPECT_EQ(symbolic::hasCycle(sp, base, all), baseCycle) << "seed " << seed;
    EXPECT_EQ(symbolic::hasCycle(sp, candidate, all), !tarjan.empty())
        << "seed " << seed;
    const Bdd after = base | kept;
    EXPECT_EQ(symbolic::hasCycle(sp, after, all),
              !tarjanOf(enc, space, after).empty())
        << "seed " << seed;
    if (!baseCycle) {
      EXPECT_FALSE(symbolic::hasCycle(sp, after, all)) << "seed " << seed;
    }

    removing += kept != groups ? 1 : 0;
    surviving += kept.isFalse() ? 0 : 1;
    pruned += visited.components.size() < full.components.size() ? 1 : 0;
  }
  std::cout << "pruned component loop: " << removing
            << " of 24 increments lose groups, " << surviving
            << " keep some, " << pruned << " skip a component, "
            << trimming << " seeded searches trim on demand\n";
  EXPECT_GE(removing, 12u);
  EXPECT_GE(surviving, 6u);
  EXPECT_GE(pruned, 6u);
  EXPECT_GE(trimming, 12u);
}

}  // namespace
