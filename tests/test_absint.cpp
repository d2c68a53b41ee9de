// Tests for the abstract-interpretation lint tier (src/analysis/absint):
// value-set evaluation and narrowing, and the abstract lint rules on
// degenerate protocols (statically unsatisfiable guards, dead assignments,
// tautological guards).
#include <gtest/gtest.h>

#include "analysis/absint.hpp"
#include "protocol/builder.hpp"

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

}  // namespace
