// Tests for the BDD-free static-analysis engine (src/analysis/staticinfo)
// and the abstract-interpretation tier (src/analysis/absint): symmetry
// orbits, value-set evaluation/narrowing, and the schedule orbit
// signatures the portfolio prunes with. Includes the degenerate-protocol
// corner cases (single process, no read edges, self-loop-only locality,
// statically unsatisfiable guards).
#include <gtest/gtest.h>

#include <numeric>

#include "analysis/absint.hpp"
#include "analysis/staticinfo.hpp"
#include "casestudies/coloring.hpp"
#include "casestudies/token_ring.hpp"
#include "core/schedule.hpp"
#include "protocol/builder.hpp"
#include "util/rng.hpp"

namespace {

using namespace stsyn;
using analysis::AbsBool;
using analysis::AbsEnv;
using analysis::ValueSet;
using protocol::E;
using protocol::lit;
using protocol::ProtocolBuilder;
using protocol::ref;
using protocol::VarId;

// ---------------------------------------------------------------------------
// Process symmetry orbits.
// ---------------------------------------------------------------------------

TEST(Orbits, TokenRingHasDistinguishedBottomProcess) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const analysis::ProcessOrbits orbits = analysis::computeOrbits(p);
  ASSERT_EQ(orbits.orbitOf.size(), 4u);
  EXPECT_EQ(orbits.orbitCount, 2u);
  // P0 (the incrementing bottom process) is alone; P1..P3 share an orbit.
  EXPECT_EQ(orbits.orbitOf[0], 0u);
  EXPECT_EQ(orbits.orbitOf[1], 1u);
  EXPECT_EQ(orbits.orbitOf[2], 1u);
  EXPECT_EQ(orbits.orbitOf[3], 1u);
  EXPECT_NE(orbits.shapes[0], orbits.shapes[1]);
  EXPECT_EQ(orbits.shapes[1], orbits.shapes[2]);
  EXPECT_EQ(orbits.shapes[2], orbits.shapes[3]);
}

TEST(Orbits, ColoringProcessesAreAllEquivalent) {
  const protocol::Protocol p = casestudies::coloring(5);
  const analysis::ProcessOrbits orbits = analysis::computeOrbits(p);
  EXPECT_EQ(orbits.orbitCount, 1u);
  for (const std::size_t o : orbits.orbitOf) EXPECT_EQ(o, 0u);
}

TEST(Orbits, DifferentDomainsBreakTheOrbit) {
  // Two structurally identical processes whose variables differ in domain
  // must not share an orbit (a renaming cannot map domain 2 onto 3).
  ProtocolBuilder b("asym");
  const VarId x = b.variable("x", 2);
  const VarId y = b.variable("y", 3);
  const std::size_t p0 = b.process("P0", {x}, {x});
  const std::size_t p1 = b.process("P1", {y}, {y});
  b.action(p0, "a", ref(x) == lit(0), {{x, lit(1)}});
  b.action(p1, "a", ref(y) == lit(0), {{y, lit(1)}});
  b.invariant(ref(x) == lit(1) && ref(y) == lit(1));
  const protocol::Protocol p = b.build();
  const analysis::ProcessOrbits orbits = analysis::computeOrbits(p);
  EXPECT_EQ(orbits.orbitCount, 2u);
}

TEST(Orbits, ShapesCountReadersAndWriters) {
  // Token ring: x_v is written by P_v only and read by P_v and its
  // successor, so every role renders as domain 3, two readers, one writer,
  // in the invariant.
  const protocol::Protocol ring = casestudies::tokenRing(4, 3);
  const analysis::ProcessOrbits ringOrbits = analysis::computeOrbits(ring);
  for (const std::string& shape : ringOrbits.shapes) {
    EXPECT_EQ(shape.rfind("W1[3r2w1i;3r2w1i]", 0), 0u) << shape;
  }

  // Four processes with the same local action over one variable each; only
  // the variables' reader and writer counts tell them apart.
  ProtocolBuilder b("counts");
  const VarId a = b.variable("a", 2);
  const VarId bv = b.variable("b", 2);
  const VarId c = b.variable("c", 2);
  const VarId d = b.variable("d", 2);
  const std::size_t p0 = b.process("P0", {a}, {a});    // a: 1 reader
  const std::size_t p1 = b.process("P1", {bv}, {bv});  // b: 2 readers
  b.process("P2", {bv, c}, {c});
  const std::size_t p3 = b.process("P3", {d}, {d});    // d: 2 writers
  const std::size_t p4 = b.process("P4", {d}, {d});
  for (const auto& [proc, v] : {std::pair{p0, a}, std::pair{p1, bv},
                                std::pair{p3, d}, std::pair{p4, d}}) {
    b.action(proc, "set", ref(v) == lit(0), {{v, lit(1)}});
  }
  b.invariant(ref(a) == lit(1) && ref(bv) == lit(1) && ref(c) == lit(1) &&
              ref(d) == lit(1));
  const protocol::Protocol p = b.build();
  const analysis::ProcessOrbits orbits = analysis::computeOrbits(p);
  EXPECT_EQ(orbits.shapes[p0].rfind("W1[2r1w1i]", 0), 0u) << orbits.shapes[p0];
  EXPECT_EQ(orbits.shapes[p1].rfind("W1[2r2w1i]", 0), 0u) << orbits.shapes[p1];
  EXPECT_EQ(orbits.shapes[p3].rfind("W1[2r2w2i]", 0), 0u) << orbits.shapes[p3];
  EXPECT_NE(orbits.orbitOf[p0], orbits.orbitOf[p1]);
  EXPECT_NE(orbits.orbitOf[p1], orbits.orbitOf[p3]);
  EXPECT_EQ(orbits.orbitOf[p3], orbits.orbitOf[p4]);
  EXPECT_EQ(orbits.orbitCount, 4u);
}

TEST(Orbits, SelfLoopOnlyLocalityIsOneOrbit) {
  // Degenerate: each process's entire locality is its own variable, and
  // neither has an action. Both render as the same one-role shape.
  ProtocolBuilder b("island");
  const VarId x = b.variable("x", 2);
  const VarId y = b.variable("y", 2);
  b.process("P0", {x}, {x});
  b.process("P1", {y}, {y});
  b.invariant(ref(x) == lit(0) && ref(y) == lit(0));
  const protocol::Protocol p = b.build();

  const analysis::ProcessOrbits orbits = analysis::computeOrbits(p);
  EXPECT_EQ(orbits.shapes[0], "W1[2r1w1i]");
  EXPECT_EQ(orbits.shapes[1], "W1[2r1w1i]");
  EXPECT_EQ(orbits.orbitCount, 1u);
}

TEST(Orbits, RenamedVariablesKeepTheOrbitPartition) {
  // computeOrbits canonicalizes up to variable renaming: permuting the
  // declaration order must not change the partition (up to the induced
  // process identity, which renameVars leaves fixed).
  const protocol::Protocol p = casestudies::tokenRing(5, 4);
  std::vector<VarId> perm(p.vars.size());
  std::iota(perm.begin(), perm.end(), VarId{0});
  std::swap(perm[0], perm[3]);
  std::swap(perm[1], perm[4]);
  const protocol::Protocol q = protocol::renameVars(p, perm);

  const analysis::ProcessOrbits a = analysis::computeOrbits(p);
  const analysis::ProcessOrbits b = analysis::computeOrbits(q);
  EXPECT_EQ(a.orbitOf, b.orbitOf);
  EXPECT_EQ(a.shapes, b.shapes);
}

// ---------------------------------------------------------------------------
// Value sets and abstract evaluation.
// ---------------------------------------------------------------------------

TEST(ValueSet, JoinInsertAndCap) {
  ValueSet a = ValueSet::of(1);
  a.insert(3);
  EXPECT_TRUE(a.contains(1));
  EXPECT_TRUE(a.contains(3));
  EXPECT_FALSE(a.contains(2));
  a.join(ValueSet::of(2));
  EXPECT_TRUE(a.contains(2));
  EXPECT_FALSE(a.top);

  ValueSet big;
  for (long v = 0; v < static_cast<long>(analysis::kValueSetCap) + 1; ++v) {
    big.insert(v);
  }
  EXPECT_TRUE(big.top);
  EXPECT_TRUE(big.contains(-12345));  // Top contains everything

  EXPECT_TRUE(ValueSet{}.empty());
  EXPECT_FALSE(ValueSet::topSet().empty());
}

TEST(AbsEval, FullEnvAndArithmetic) {
  ProtocolBuilder b("a");
  const VarId x = b.variable("x", 3);
  const VarId y = b.variable("y", 2);
  b.process("P", {x, y}, {x});
  b.invariant(ref(x) == lit(0));
  const protocol::Protocol p = b.build();

  const AbsEnv env = analysis::fullEnv(p);
  ASSERT_EQ(env.size(), 2u);
  EXPECT_EQ(env[x], (ValueSet{false, {0, 1, 2}}));
  EXPECT_EQ(env[y], (ValueSet{false, {0, 1}}));

  // x + y over {0,1,2} + {0,1} = {0,1,2,3}.
  const E sum = ref(x) + ref(y);
  EXPECT_EQ(analysis::absEvalInt(*sum.ptr(), env),
            (ValueSet{false, {0, 1, 2, 3}}));
  // (x + 1) mod 3 stays within 0..2 even though + overflows the domain.
  const E wrap = (ref(x) + lit(1)).mod(3);
  EXPECT_EQ(analysis::absEvalInt(*wrap.ptr(), env),
            (ValueSet{false, {0, 1, 2}}));
}

TEST(AbsEval, ThreeValuedBool) {
  ProtocolBuilder b("a");
  const VarId x = b.variable("x", 3);
  b.process("P", {x}, {x});
  b.invariant(ref(x) == lit(0));
  const protocol::Protocol p = b.build();
  const AbsEnv env = analysis::fullEnv(p);

  EXPECT_EQ(analysis::absEvalBool(*(ref(x) < lit(3)).ptr(), env),
            AbsBool::True);
  EXPECT_EQ(analysis::absEvalBool(*(ref(x) == lit(7)).ptr(), env),
            AbsBool::False);
  EXPECT_EQ(analysis::absEvalBool(*(ref(x) == lit(1)).ptr(), env),
            AbsBool::Top);
}

TEST(AbsEval, AssumeNarrowsAndDetectsEmptiness) {
  ProtocolBuilder b("a");
  const VarId x = b.variable("x", 4);
  const VarId y = b.variable("y", 4);
  b.process("P", {x, y}, {x});
  b.invariant(ref(x) == lit(0));
  const protocol::Protocol p = b.build();

  AbsEnv env = analysis::fullEnv(p);
  EXPECT_TRUE(analysis::assume(*(ref(x) == lit(2)).ptr(), true, env));
  EXPECT_EQ(env[x], ValueSet::of(2));
  EXPECT_EQ(env[y], (ValueSet{false, {0, 1, 2, 3}}));

  // Conjunction narrowing to empty is definite unsatisfiability.
  AbsEnv env2 = analysis::fullEnv(p);
  EXPECT_FALSE(
      analysis::assume(*(ref(x) == lit(0) && ref(x) == lit(1)).ptr(), true,
                       env2));

  // want=false narrows through the negation.
  AbsEnv env3 = analysis::fullEnv(p);
  EXPECT_TRUE(analysis::assume(*(ref(x) < lit(2)).ptr(), false, env3));
  EXPECT_EQ(env3[x], (ValueSet{false, {2, 3}}));

  // Relational constraints keep the over-approximation (both full).
  AbsEnv env4 = analysis::fullEnv(p);
  EXPECT_TRUE(
      analysis::assume(*(ref(x) == ref(y) && ref(x) != ref(y)).ptr(), true,
                       env4));
}

TEST(AbsLint, AllGuardsStaticallyUnsatisfiable) {
  // Degenerate protocol: every action's guard is impossible over the
  // declared domains — the abstract tier must flag each one.
  ProtocolBuilder b("frozen");
  const VarId x = b.variable("x", 2);
  const VarId y = b.variable("y", 2);
  const std::size_t p0 = b.process("P0", {x, y}, {x});
  const std::size_t p1 = b.process("P1", {x, y}, {y});
  b.action(p0, "a", ref(x) == lit(5), {{x, lit(0)}});
  b.action(p1, "b", ref(y) + ref(x) > lit(2), {{y, lit(0)}});
  b.invariant(ref(x) == lit(0));
  const protocol::Protocol p = b.build();

  analysis::Diagnostics diags;
  analysis::lintAbstract(p, diags);
  std::size_t unsat = 0;
  for (const analysis::Diagnostic& d : diags.items()) {
    if (d.ruleId == "abs-guard-unsat") {
      ++unsat;
      EXPECT_EQ(d.precision, "overapprox");
    }
  }
  EXPECT_EQ(unsat, 2u);
}

TEST(AbsLint, DeadAssignmentAndTautology) {
  ProtocolBuilder b("d");
  const VarId x = b.variable("x", 3);
  const std::size_t p0 = b.process("P0", {x}, {x});
  // Guard narrows x to {2}; assigning 2 can never change it.
  b.action(p0, "dead", ref(x) == lit(2), {{x, lit(2)}});
  // Always-true guard.
  b.action(p0, "always", ref(x) >= lit(0), {{x, lit(1)}});
  b.invariant(ref(x) == lit(0));
  const protocol::Protocol p = b.build();

  analysis::Diagnostics diags;
  analysis::lintAbstract(p, diags);
  bool dead = false;
  bool taut = false;
  for (const analysis::Diagnostic& d : diags.items()) {
    if (d.ruleId == "abs-dead-assignment") dead = true;
    if (d.ruleId == "abs-guard-tautology") taut = true;
  }
  EXPECT_TRUE(dead);
  EXPECT_TRUE(taut);
}

// ---------------------------------------------------------------------------
// Schedule orbit signatures (what the portfolio prunes with).
// ---------------------------------------------------------------------------

TEST(ScheduleOrbits, SignaturesAndRepresentatives) {
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  const analysis::ProcessOrbits orbits = analysis::computeOrbits(p);

  // Signature replaces each process with its orbit: schedules that walk
  // interchangeable processes in the same order collide.
  EXPECT_EQ(analysis::scheduleOrbitSignature(orbits, {0, 1, 2, 3}),
            (std::vector<std::size_t>{0, 1, 1, 1}));
  EXPECT_EQ(analysis::scheduleOrbitSignature(orbits, {0, 3, 1, 2}),
            (std::vector<std::size_t>{0, 1, 1, 1}));
  EXPECT_EQ(analysis::scheduleOrbitSignature(orbits, {1, 0, 2, 3}),
            (std::vector<std::size_t>{1, 0, 1, 1}));

  // All 24 schedules collapse to 4 signatures (position of P0), with the
  // earliest schedule of each group as representative.
  const std::vector<core::Schedule> schedules = core::allSchedules(4);
  const std::vector<std::size_t> reps =
      analysis::scheduleRepresentatives(orbits, schedules);
  ASSERT_EQ(reps.size(), 24u);
  std::size_t repCount = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_LE(reps[i], i);
    EXPECT_EQ(reps[reps[i]], reps[i]);  // representatives represent themselves
    EXPECT_EQ(analysis::scheduleOrbitSignature(orbits, schedules[i]),
              analysis::scheduleOrbitSignature(orbits, schedules[reps[i]]));
    if (reps[i] == i) ++repCount;
  }
  EXPECT_EQ(repCount, 4u);
}

}  // namespace
