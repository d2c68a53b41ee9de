// Tests for the util module (tables, timers) and assorted edge cases that
// don't belong to a bigger suite: ITE, degenerate domains, multi-writer
// extraction.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "protocol/builder.hpp"
#include "bdd/bdd.hpp"
#include "core/heuristic.hpp"
#include "symbolic/encoding.hpp"
#include "symbolic/relations.hpp"
#include "extraction/actions.hpp"
#include "util/cancel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace stsyn;

TEST(Table, AlignedAndCsvRendering) {
  util::Table t({"name", "value"});
  t.addRow({"alpha", util::Table::cell(std::size_t{42})});
  t.addRow({"beta", util::Table::cell(0.5)});
  EXPECT_EQ(t.rowCount(), 2u);

  std::ostringstream aligned;
  t.printAligned(aligned);
  EXPECT_NE(aligned.str().find("alpha"), std::string::npos);
  EXPECT_NE(aligned.str().find("42"), std::string::npos);

  std::ostringstream csv;
  t.printCsv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,42\nbeta,0.5\n");
}

TEST(Table, RejectsWrongArity) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
}

TEST(Timer, StopwatchAndAccumulatorAdvance) {
  util::Stopwatch w;
  double total = 0;
  {
    util::ScopedAccumulator acc(total);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(total, 0.0);
  EXPECT_GE(w.seconds(), total * 0.5);
  w.restart();
  EXPECT_LT(w.seconds(), total + 1.0);
}

TEST(Encoding, SingletonDomainVariables) {
  // A domain-1 variable still occupies one (forced-to-zero) bit.
  protocol::ProtocolBuilder b("tiny");
  const protocol::VarId x = b.variable("x", 1);
  const protocol::VarId y = b.variable("y", 2);
  b.process("P", {x, y}, {y});
  b.invariant(protocol::ref(y) == protocol::lit(0));
  const protocol::Protocol p = b.build();
  symbolic::Encoding enc(p);
  EXPECT_DOUBLE_EQ(enc.countStates(enc.validCur()), 2.0);
  symbolic::SymbolicProtocol sp(enc);
  const core::StrongResult r = core::addStrongConvergence(sp);
  EXPECT_TRUE(r.success);
}

TEST(Extraction, MultiVariableWriters) {
  // A process that writes two variables at once: extraction must report
  // both written values per action.
  using protocol::lit;
  using protocol::ref;
  protocol::ProtocolBuilder b("pairwriter");
  const protocol::VarId x = b.variable("x", 2);
  const protocol::VarId y = b.variable("y", 2);
  const std::size_t p0 = b.process("P0", {x, y}, {x, y});
  b.action(p0, "sync", ref(x) != ref(y), {{x, lit(1)}, {y, lit(1)}});
  b.invariant(protocol::blit(true));
  const protocol::Protocol p = b.build();
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);

  const auto pa =
      extraction::extractProcessActions(sp, 0, sp.processRelation(0));
  ASSERT_EQ(pa.actions.size(), 1u);
  EXPECT_EQ(pa.actions[0].writeValues, (std::vector<int>{1, 1}));
  // Guard covers exactly the two x != y points.
  const std::vector<int> domains{2, 2};
  EXPECT_EQ(pa.actions[0].guard.countPoints(domains), 2u);
  const std::string text = extraction::formatActions(p, pa);
  EXPECT_NE(text.find("x := 1, y := 1"), std::string::npos);
}

TEST(Extraction, EmptyRelationYieldsNoActions) {
  const protocol::Protocol p = [] {
    protocol::ProtocolBuilder b("none");
    const protocol::VarId x = b.variable("x", 2);
    b.process("P", {x}, {x});
    b.invariant(protocol::blit(true));
    return b.build();
  }();
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  const auto pa = extraction::extractProcessActions(
      sp, 0, enc.manager().falseBdd());
  EXPECT_TRUE(pa.actions.empty());
}

// ---------------------------------------------------------------------------
// Cooperative cancellation.
// ---------------------------------------------------------------------------

TEST(Cancel, CheckpointIsANoOpWithoutAScope) {
  EXPECT_EQ(util::currentCancelToken(), nullptr);
  EXPECT_NO_THROW(util::checkCancellation());
}

TEST(Cancel, ScopeInstallsAndRestoresTheToken) {
  util::CancelToken outer;
  {
    const util::CancelScope a(&outer);
    EXPECT_EQ(util::currentCancelToken(), &outer);
    util::CancelToken inner;
    {
      const util::CancelScope b(&inner);
      EXPECT_EQ(util::currentCancelToken(), &inner);
    }
    EXPECT_EQ(util::currentCancelToken(), &outer);
    {
      // nullptr masks the outer token — checkpoints must not fire.
      outer.cancel();
      const util::CancelScope mask(nullptr);
      EXPECT_EQ(util::currentCancelToken(), nullptr);
      EXPECT_NO_THROW(util::checkCancellation());
    }
    EXPECT_THROW(util::checkCancellation(), util::CancelledError);
  }
  EXPECT_EQ(util::currentCancelToken(), nullptr);
}

TEST(Cancel, ExplicitCancelAndDeadlines) {
  util::CancelToken t;
  EXPECT_FALSE(t.expired());
  EXPECT_NO_THROW(t.check());

  t.setTimeout(std::chrono::hours(1));
  EXPECT_FALSE(t.expired());

  t.setTimeout(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(t.expired());
  EXPECT_THROW(t.check(), util::CancelledError);

  util::CancelToken u;
  u.cancel();
  EXPECT_TRUE(u.expired());
}

TEST(Cancel, CancelFromAnotherThreadIsObserved) {
  util::CancelToken t;
  const util::CancelScope scope(&t);
  std::thread other([&t] { t.cancel(); });
  other.join();
  EXPECT_THROW(util::checkCancellation(), util::CancelledError);
}

TEST(Cancel, ExpiredTokenAbortsSynthesisAndLeavesManagerReusable) {
  // An already-expired token must unwind addStrongConvergence through the
  // fixpoint checkpoints, and the unwinding must leave the manager usable.
  using protocol::lit;
  using protocol::ref;
  protocol::ProtocolBuilder b("cancelme");
  const protocol::VarId x = b.variable("x", 4);
  const std::size_t p0 = b.process("P0", {x}, {x});
  b.action(p0, "step", ref(x) != lit(0), {{x, lit(0)}});
  b.invariant(ref(x) == lit(0));
  const protocol::Protocol p = b.build();

  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  util::CancelToken t;
  t.cancel();
  {
    const util::CancelScope scope(&t);
    EXPECT_THROW((void)core::addStrongConvergence(sp), util::CancelledError);
  }
  // Outside the scope the same protocol synthesizes normally.
  const core::StrongResult r = core::addStrongConvergence(sp);
  EXPECT_TRUE(r.success);
}

}  // namespace
