// Tests for the symbolic layer, cross-checked against the explicit-state
// oracle: encoding, expression compilation, action/transition relations,
// group expansion, image/preimage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "protocol/builder.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "explicitstate/semantics.hpp"
#include "symbolic/decode.hpp"
#include "symbolic/relations.hpp"
#include "util/rng.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;
using symbolic::Encoding;
using symbolic::SymbolicProtocol;

TEST(Encoding, LayoutInterleavesCurrentAndNext) {
  const protocol::Protocol p = casestudies::tokenRing(3, 3);
  const Encoding enc(p);
  // Domain 3 -> 2 bits per variable, 4 levels per variable.
  EXPECT_EQ(enc.bitsOf(0), 2);
  EXPECT_EQ(enc.manager().varCount(), 12u);
  for (protocol::VarId v = 0; v < 3; ++v) {
    for (int b = 0; b < 2; ++b) {
      EXPECT_EQ(enc.nextLevels(v)[b], enc.curLevels(v)[b] + 1);
    }
  }
}

TEST(Encoding, ValueIndicatorsPartitionValidCodes) {
  const protocol::Protocol p = casestudies::tokenRing(3, 3);
  const Encoding enc(p);
  bdd::Manager& m = enc.manager();
  for (protocol::VarId v = 0; v < 3; ++v) {
    Bdd any = m.falseBdd();
    for (int val = 0; val < 3; ++val) {
      for (int other = val + 1; other < 3; ++other) {
        EXPECT_TRUE((enc.curValue(v, val) & enc.curValue(v, other)).isFalse());
      }
      any |= enc.curValue(v, val);
    }
    EXPECT_TRUE(enc.validCur().implies(any));
  }
  EXPECT_THROW((void)enc.curValue(0, 3), std::out_of_range);
}

TEST(Encoding, StateCountsMatchExplicit) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  EXPECT_DOUBLE_EQ(enc.countStates(enc.validCur()), 81.0);
  const SymbolicProtocol sp(enc);
  EXPECT_DOUBLE_EQ(enc.countStates(sp.invariant()), 12.0);
}

TEST(Encoding, StateBddDecodesBack) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const std::vector<int> s{2, 1, 0, 2};
  const auto ids = symbolic::decodeStates(enc, enc.stateBdd(s));
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(symbolic::unpackState(p, ids[0]), s);
}

TEST(Compile, InvariantAgreesWithExplicitEvaluation) {
  const protocol::Protocol p = casestudies::matching(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);
  const auto invStates = symbolic::decodeStates(enc, sp.invariant());
  std::vector<std::uint64_t> expected;
  for (explicitstate::StateId s = 0; s < space.size(); ++s) {
    if (space.inInvariant(s)) expected.push_back(s);
  }
  EXPECT_EQ(invStates, expected);
}

TEST(Compile, ArithmeticOverflowInAssignmentRejected) {
  protocol::ProtocolBuilder b("bad");
  const protocol::VarId x = b.variable("x", 3);
  const std::size_t proc = b.process("P", {x}, {x});
  // x + 1 can reach 3, outside the domain, and no .mod() clamps it.
  b.action(proc, "overflow", protocol::blit(true),
           {{x, protocol::ref(x) + protocol::lit(1)}});
  b.invariant(protocol::blit(true));
  const protocol::Protocol p = b.build();
  const Encoding enc(p);
  EXPECT_THROW((void)SymbolicProtocol(enc), std::invalid_argument);
}

TEST(Relations, ProtocolRelationMatchesExplicitTransitions) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);
  const auto ts = explicitstate::buildTransitions(space);

  std::vector<symbolic::ExplicitTransition> expected;
  for (explicitstate::StateId s = 0; s < space.size(); ++s) {
    for (const auto& [t, proc] : ts.succ[s]) {
      expected.push_back({s, t});
    }
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(symbolic::decodeRelation(enc, sp.protocolRelation()), expected);
}

TEST(Relations, PerProcessRelationsPartitionByWriter) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);
  for (std::size_t j = 0; j < 4; ++j) {
    for (const auto& [from, to] :
         symbolic::decodeRelation(enc, sp.processRelation(j))) {
      const auto s0 = symbolic::unpackState(p, from);
      const auto s1 = symbolic::unpackState(p, to);
      for (protocol::VarId v = 0; v < p.vars.size(); ++v) {
        if (!p.processes[j].canWrite(v)) {
          EXPECT_EQ(s0[v], s1[v]);
        }
      }
    }
  }
}

TEST(Relations, ImageAndPreimageMatchExplicit) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);
  const auto ts = explicitstate::buildTransitions(space);

  const std::vector<int> s0{1, 0, 0, 0};
  const Bdd sB = enc.stateBdd(s0);
  const auto img = symbolic::decodeStates(enc, sp.image(sp.protocolRelation(), sB));
  std::vector<std::uint64_t> expected;
  for (const auto& [t, proc] : ts.succ[space.pack(s0)]) expected.push_back(t);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(img, expected);

  // Preimage of the image contains the state.
  const Bdd pre = sp.preimage(sp.protocolRelation(),
                              sp.image(sp.protocolRelation(), sB));
  EXPECT_FALSE((pre & sB).isFalse());
}

TEST(Relations, SourcesAndDeadlocks) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);
  const auto ts = explicitstate::buildTransitions(space);
  const auto deadlocks =
      symbolic::decodeStates(enc, sp.deadlocks(sp.protocolRelation()));
  std::vector<std::uint64_t> expected;
  for (explicitstate::StateId s = 0; s < space.size(); ++s) {
    if (!space.inInvariant(s) && ts.succ[s].empty()) expected.push_back(s);
  }
  EXPECT_EQ(deadlocks, expected);
  EXPECT_EQ(deadlocks.size(), 18u);
}

TEST(Relations, SourcesMatchExplicitOutDegree) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const explicitstate::StateSpace space(p);
  const auto ts = explicitstate::buildTransitions(space);
  const auto sources =
      symbolic::decodeStates(enc, sp.sources(sp.protocolRelation()));
  std::vector<std::uint64_t> expected;
  for (explicitstate::StateId s = 0; s < space.size(); ++s) {
    if (!ts.succ[s].empty()) expected.push_back(s);
  }
  EXPECT_EQ(sources, expected);
}

TEST(Relations, SourcesAndDeadlocksOfTheEmptyRelation) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd none = enc.manager().falseBdd();
  EXPECT_TRUE(sp.sources(none).isFalse());
  // With no transitions at all, every valid state outside the invariant
  // deadlocks.
  EXPECT_EQ(sp.deadlocks(none), enc.validCur() & !sp.invariant());
}

TEST(Relations, SourcesAndDeadlocksOfTheFullRelation) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  // The complete relation over valid codes: every valid state is a source
  // (sources() existentially drops the next copy), so nothing deadlocks.
  const Bdd full = enc.validCur() & enc.validNext();
  EXPECT_EQ(sp.sources(full), enc.validCur());
  EXPECT_TRUE(sp.deadlocks(full).isFalse());
  // The unfenced constant-true relation also covers invalid codes; its
  // sources are everything, but deadlocks stay fenced to valid states.
  const Bdd unfenced = enc.manager().trueBdd();
  EXPECT_EQ(sp.sources(unfenced), enc.manager().trueBdd());
  EXPECT_TRUE(sp.deadlocks(unfenced).isFalse());
}

TEST(Relations, RestrictRelKeepsBothEndpointsInside) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd inv = sp.invariant();
  for (const auto& [from, to] :
       symbolic::decodeRelation(enc, sp.restrictRel(sp.protocolRelation(), inv))) {
    const auto s0 = symbolic::unpackState(p, from);
    const auto s1 = symbolic::unpackState(p, to);
    EXPECT_TRUE(protocol::evalBool(*p.invariant, s0));
    EXPECT_TRUE(protocol::evalBool(*p.invariant, s1));
  }
}

TEST(Relations, RestrictRelFencesInvalidCodesInX) {
  // Regression: over non-power-of-two domains (here 3 values in 2 bits,
  // code 3 invalid) any X built with a negation contains invalid codes.
  // restrictRel must fence X to validCur() first, or transitions touching
  // invalid codes survive the restriction.
  const protocol::Protocol p = casestudies::tokenRing(3, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd x = !sp.invariant();  // unfenced: includes code 3 everywhere
  ASSERT_FALSE((x & !enc.validCur()).isFalse());
  // The constant-true relation has transitions between invalid codes;
  // after restriction both endpoints must be valid states of X.
  const Bdd r = sp.restrictRel(enc.manager().trueBdd(), x);
  EXPECT_TRUE(r.implies(enc.validCur()));
  EXPECT_TRUE(r.implies(enc.curToNext(enc.validCur())));
  EXPECT_EQ(r, sp.restrictRel(enc.manager().trueBdd(), x & enc.validCur()));
}

TEST(Relations, RestrictRelEdgeCases) {
  const protocol::Protocol p = casestudies::tokenRing(3, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  bdd::Manager& m = enc.manager();
  const Bdd rel = sp.protocolRelation();
  // Empty relation or empty X: nothing survives.
  EXPECT_TRUE(sp.restrictRel(m.falseBdd(), sp.invariant()).isFalse());
  EXPECT_TRUE(sp.restrictRel(rel, m.falseBdd()).isFalse());
  // X = true keeps a valid-fenced relation unchanged.
  EXPECT_EQ(sp.restrictRel(rel, m.trueBdd()), rel);
  // Restriction is idempotent and monotone in X.
  const Bdd x = enc.validCur() & !sp.invariant();
  const Bdd once = sp.restrictRel(rel, x);
  EXPECT_EQ(sp.restrictRel(once, x), once);
  EXPECT_TRUE(once.implies(sp.restrictRel(rel, m.trueBdd())));
}

// ---------------------------------------------------------------------------
// Group semantics (Section II of the paper).
// ---------------------------------------------------------------------------

TEST(Groups, GroupSizeMatchesPaperFormula) {
  // "For a TR protocol with n processes and n-1 values, each group includes
  // (n-1)^(n-2) transitions": the group of one process-j transition varies
  // over the unreadable variables.
  const int n = 4;
  const protocol::Protocol p = casestudies::tokenRing(n, n - 1);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);

  // One transition of P1: <x0=1, x1=0> -> x1 := 1, others free.
  const std::vector<int> s0{1, 0, 0, 0};
  std::vector<int> s1 = s0;
  s1[1] = 1;
  const Bdd t = enc.stateBdd(s0) & sp.onNext(enc.stateBdd(s1));
  const auto group = symbolic::decodeRelation(enc, sp.groupExpand(1, t));
  EXPECT_EQ(group.size(), static_cast<std::size_t>(std::pow(n - 1, n - 2)));
  // All members agree on P1's readable variables and keep unreadables.
  for (const auto& [from, to] : group) {
    const auto a = symbolic::unpackState(p, from);
    const auto b = symbolic::unpackState(p, to);
    EXPECT_EQ(a[0], 1);
    EXPECT_EQ(a[1], 0);
    EXPECT_EQ(b[1], 1);
    EXPECT_EQ(a[2], b[2]);
    EXPECT_EQ(a[3], b[3]);
  }
}

TEST(Groups, ExpansionIsIdempotentAndMonotone) {
  const protocol::Protocol p = casestudies::matching(4);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  const Bdd cand = sp.candidates(2);
  // A slice of candidates: those leaving a fixed state.
  const std::vector<int> s{0, 1, 2, 0};
  const Bdd slice = cand & enc.stateBdd(s);
  const Bdd once = sp.groupExpand(2, slice);
  EXPECT_TRUE(slice.implies(once));
  EXPECT_TRUE(sp.groupExpand(2, once) == once);
}

TEST(Groups, ActionsAreGroupClosed) {
  // Read restrictions make every guarded command's transition set a union
  // of whole groups — expansion must not add anything.
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  for (std::size_t j = 0; j < 4; ++j) {
    const Bdd rel = sp.processRelation(j) & !enc.diagonal();
    EXPECT_TRUE(sp.groupExpand(j, rel) == rel) << "process " << j;
  }
}

TEST(Groups, CandidatesExcludeSelfLoopsAndRespectFrames) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  for (std::size_t j = 0; j < 4; ++j) {
    const Bdd cand = sp.candidates(j);
    EXPECT_TRUE((cand & enc.diagonal()).isFalse());
    EXPECT_TRUE(cand.implies(sp.frame(j)));
  }
}

TEST(Groups, FusedProductsAtTheReadWriteExtremes) {
  // P0 reads every variable (no unreadables, so every group is a single
  // transition) and writes one; P1 writes every variable (the rename is the
  // whole cur -> next rename and the frame is trivial); P2 has an
  // unreadable variable. Domains 3 leave invalid codes.
  protocol::ProtocolBuilder b("extremes");
  const protocol::VarId x = b.variable("x", 3);
  const protocol::VarId y = b.variable("y", 2);
  const protocol::VarId z = b.variable("z", 3);
  b.process("P0", {x, y, z}, {y});
  b.process("P1", {x, y, z}, {x, y, z});
  b.process("P2", {y, z}, {z});
  b.invariant(protocol::ref(x) == protocol::ref(z));
  const protocol::Protocol p = b.build();
  const Encoding enc(p);
  const SymbolicProtocol sp(enc);

  const Bdd inv = sp.invariant();
  const Bdd outside = enc.validCur() & !inv;
  const Bdd some = enc.stateBdd(std::vector<int>{1, 0, 2}) |
                   enc.stateBdd(std::vector<int>{2, 1, 0});
  const std::vector<Bdd> sets{enc.manager().falseBdd(), enc.validCur(), inv,
                              outside, some};
  for (std::size_t j = 0; j < 3; ++j) {
    const Bdd cand = sp.candidates(j);
    for (const Bdd& from : sets) {
      for (const Bdd& to : sets) {
        const Bdd members = cand & from & sp.onNext(to);
        const Bdd groups = sp.groupsBetween(j, from, to);
        EXPECT_TRUE(groups == (sp.groupExpand(j, members) & cand))
            << "process " << j;
        // Without unreadables a group is one transition.
        if (j < 2) {
          EXPECT_TRUE(groups == members) << "process " << j;
        }
      }
      EXPECT_TRUE(sp.groupExpand(j, cand, from) ==
                  sp.groupExpand(j, cand & from));
      EXPECT_TRUE(sp.groupExpandNext(j, cand, from) ==
                  sp.groupExpand(j, cand & sp.onNext(from)));
    }
  }
  // Debug builds reject operands outside the fences the identities need.
  EXPECT_DEBUG_DEATH((void)sp.groupsBetween(2, !inv, inv), "validCur");
  EXPECT_DEBUG_DEATH((void)sp.groupExpandNext(2, enc.validCur(), inv),
                     "frame");
}

TEST(PickTransition,ReturnsTheCanonicalLexminMember) {
  // The explicit synthesis engine reproduces the symbolic greedy pass by
  // assuming pickTransition returns the member pair that minimizes the
  // value-lexicographic (current state, next state) key in variable
  // order, independent of the BDD layout. This property is load-bearing
  // for cross-engine parity — verify it against brute force on random
  // relations.
  const protocol::Protocol p = casestudies::tokenRing(3, 3);
  util::Rng rng(321);

  auto canonicalKey = [](const std::vector<int>& a, const std::vector<int>& b) {
    std::vector<int> key = a;
    key.insert(key.end(), b.begin(), b.end());
    return key;
  };

  const Encoding enc(p);
  const SymbolicProtocol sp(enc);
  for (int trial = 0; trial < 20; ++trial) {
    // Random relation: a handful of random (from, to) state pairs.
    Bdd rel = enc.manager().falseBdd();
    std::vector<std::pair<std::vector<int>, std::vector<int>>> pairs;
    const std::size_t n = 1 + rng.below(12);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<int> from(3);
      std::vector<int> to(3);
      for (int v = 0; v < 3; ++v) {
        from[v] = static_cast<int>(rng.below(3));
        to[v] = static_cast<int>(rng.below(3));
      }
      pairs.emplace_back(from, to);
      rel |= enc.stateBdd(from) & sp.onNext(enc.stateBdd(to));
    }
    const auto [s0, s1] = sp.pickTransition(rel);
    auto bestKey = canonicalKey(pairs[0].first, pairs[0].second);
    for (const auto& [from, to] : pairs) {
      auto key = canonicalKey(from, to);
      if (key < bestKey) bestKey = key;
    }
    EXPECT_EQ(canonicalKey(s0, s1), bestKey) << "trial " << trial;
  }
}

}  // namespace
