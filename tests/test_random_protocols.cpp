// Randomized differential testing: generate random small protocols
// (random topology, random invariant; empty action sets so closure holds
// trivially), run BOTH synthesis engines, and assert they agree exactly —
// plus, on success, that the result verifies against the explicit checker.
// The guarded differential and the ranking-operand wall add random guarded
// actions, so the input relation is not empty. The lint wall adds random
// degenerate actions and checks the linter's exact semantic rules against
// a brute-force oracle.
//
// This is the widest net in the suite: it explores protocol shapes none of
// the case studies have (asymmetric localities, multi-writer processes,
// disconnected reads).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "analysis/lint.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "protocol/builder.hpp"
#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "core/ranks.hpp"
#include "explicitstate/synthesis.hpp"
#include "explicitstate/verify.hpp"
#include "symbolic/decode.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

/// A random guard over `reads` for the lint wall: comparisons of a
/// variable with a constant (one past its domain included) or with
/// another variable, joined by && and ||, and sometimes e && !e or
/// e || !e, so unsatisfiable guards and tautologies occur.
protocol::E randomGuard(util::Rng& rng,
                        const std::vector<protocol::VarId>& reads,
                        const std::vector<int>& domains, int depth) {
  const auto pick = [&] { return reads[rng.below(reads.size())]; };
  switch (depth == 0 ? 0 : rng.below(5)) {
    case 0:
    case 1: {
      const protocol::VarId v = pick();
      const protocol::E rhs =
          rng.flip()
              ? protocol::ref(pick())
              : protocol::lit(static_cast<long>(rng.below(domains[v] + 1)));
      switch (rng.below(4)) {
        case 0: return protocol::ref(v) == rhs;
        case 1: return protocol::ref(v) != rhs;
        case 2: return protocol::ref(v) < rhs;
        default: return protocol::ref(v) >= rhs;
      }
    }
    case 2:
    case 3: {
      // Named operands: the draws must not depend on evaluation order.
      const protocol::E a = randomGuard(rng, reads, domains, depth - 1);
      const protocol::E b = randomGuard(rng, reads, domains, depth - 1);
      return rng.flip() ? (a && b) : (a || b);
    }
    default: {
      const protocol::E e = randomGuard(rng, reads, domains, depth - 1);
      return rng.flip() ? (e && !e) : (e || !e);
    }
  }
}

/// A random protocol: 3-4 variables with domains 2-3, 2-4 processes with
/// random read sets (always containing their writes), a random non-empty,
/// non-full invariant built from equalities/inequalities. With `guarded`,
/// each process also gets 1-2 guarded actions; with `degenerate` as well,
/// 1-2 more actions with a randomGuard and an in-domain constant, self or
/// copied right-hand side. The extra draws come last, so the protocols of
/// a given seed without them are unchanged.
protocol::Protocol randomProtocol(util::Rng& rng, bool guarded = false,
                                  bool degenerate = false) {
  protocol::ProtocolBuilder b("random");
  const std::size_t nVars = 3 + rng.below(2);
  std::vector<protocol::VarId> vars;
  std::vector<int> domains;
  for (std::size_t v = 0; v < nVars; ++v) {
    const int d = 2 + static_cast<int>(rng.below(2));
    domains.push_back(d);
    vars.push_back(b.variable("v" + std::to_string(v), d));
  }

  const std::size_t nProcs = 2 + rng.below(3);
  std::vector<std::vector<protocol::VarId>> procReads;
  std::vector<std::vector<protocol::VarId>> procWrites;
  for (std::size_t j = 0; j < nProcs; ++j) {
    // Writes: one or two random variables. Reads: the writes plus a random
    // subset of the rest.
    std::vector<protocol::VarId> writes{vars[rng.below(nVars)]};
    if (rng.below(4) == 0) writes.push_back(vars[rng.below(nVars)]);
    std::vector<protocol::VarId> reads = writes;
    for (const protocol::VarId v : vars) {
      if (rng.below(2) == 0) reads.push_back(v);
    }
    b.process("P" + std::to_string(j), reads, writes);
    procReads.push_back(reads);
    procWrites.push_back(writes);
  }

  // Invariant: conjunction/disjunction of 2-3 random literals. Reject
  // empty/full instances by retrying at the caller.
  protocol::E inv;
  const std::size_t terms = 2 + rng.below(2);
  for (std::size_t t = 0; t < terms; ++t) {
    const protocol::VarId v = vars[rng.below(nVars)];
    const int val = static_cast<int>(rng.below(domains[v]));
    protocol::E lit = rng.flip()
                          ? (protocol::ref(v) == protocol::lit(val))
                          : (protocol::ref(v) != protocol::lit(val));
    if (t == 0) {
      inv = lit;
    } else {
      inv = rng.flip() ? (inv && lit) : (inv || lit);
    }
  }
  b.invariant(inv);

  // Each action sets one written variable w to a constant it does not hold,
  // under a literal over another readable variable when there is one, so
  // every guard is satisfiable and δ_p is never empty.
  for (std::size_t j = 0; guarded && j < nProcs; ++j) {
    const std::size_t nActions = 1 + rng.below(2);
    for (std::size_t a = 0; a < nActions; ++a) {
      const protocol::VarId w = procWrites[j][rng.below(procWrites[j].size())];
      const int val = static_cast<int>(rng.below(domains[w]));
      protocol::E guard = protocol::ref(w) != protocol::lit(val);
      const protocol::VarId r = procReads[j][rng.below(procReads[j].size())];
      const int rv = static_cast<int>(rng.below(domains[r]));
      if (r != w) {
        guard = guard && (rng.flip() ? (protocol::ref(r) == protocol::lit(rv))
                                     : (protocol::ref(r) != protocol::lit(rv)));
      }
      b.action(j, "A" + std::to_string(a), guard, {{w, protocol::lit(val)}});
    }
  }
  for (std::size_t j = 0; guarded && degenerate && j < nProcs; ++j) {
    const std::size_t nActions = 1 + rng.below(2);
    for (std::size_t a = 0; a < nActions; ++a) {
      const protocol::E guard = randomGuard(rng, procReads[j], domains, 2);
      std::vector<std::pair<protocol::VarId, protocol::E>> assigns;
      for (const protocol::VarId w : procWrites[j]) {
        if (!assigns.empty() && assigns.front().first == w) continue;
        const protocol::VarId r = procReads[j][rng.below(procReads[j].size())];
        switch (rng.below(3)) {
          case 0:
            assigns.emplace_back(
                w, protocol::lit(static_cast<long>(rng.below(domains[w]))));
            break;
          case 1:
            assigns.emplace_back(w, protocol::ref(w));
            break;
          default:
            assigns.emplace_back(w, protocol::ref(r).mod(domains[w]));
        }
      }
      b.action(j, "D" + std::to_string(a), guard, assigns);
    }
  }
  return b.build();
}

/// Runs both synthesis engines on `p` and asserts they agree on success,
/// failure kind, pass and the returned relation, edge for edge; on
/// success, that the result verifies in both engines. Fills `outcome`
/// with "pass N" or the failure kind.
void expectEnginesAgree(const protocol::Protocol& p,
                        const explicitstate::StateSpace& space,
                        const std::string& where, std::string& outcome) {
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  const core::StrongResult sym = core::addStrongConvergence(sp);
  const explicitstate::SynthResult ex =
      explicitstate::addStrongConvergenceExplicit(space);

  // Engine agreement, transition for transition.
  ASSERT_EQ(sym.success, ex.success) << where;
  EXPECT_EQ(static_cast<int>(sym.failure), static_cast<int>(ex.failure))
      << where;
  EXPECT_EQ(sym.stats.passCompleted, ex.passCompleted) << where;
  std::vector<std::pair<explicitstate::StateId, explicitstate::StateId>>
      symEdges;
  for (const auto& [from, to] : symbolic::decodeRelation(enc, sym.relation)) {
    symEdges.emplace_back(from, to);
  }
  ASSERT_EQ(symEdges, ex.relation) << where;
  outcome = sym.success ? "pass " + std::to_string(sym.stats.passCompleted)
                        : core::toString(sym.failure);

  if (sym.success) {
    // Soundness: the synthesized protocol verifies in both engines.
    EXPECT_TRUE(verify::check(sp, sym.relation).stronglyStabilizing())
        << where;
    const auto ts = explicitstate::fromEdges(space, ex.relation);
    const auto report = explicitstate::check(space, ts);
    EXPECT_TRUE(report.stronglyStabilizing()) << where;
    // And the interference constraint of Problem III.1 holds.
    EXPECT_TRUE(verify::agreesInsideInvariant(sp, sp.protocolRelation(),
                                              sym.relation))
        << where;
  }
}

class RandomProtocolDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProtocolDifferential, EnginesAgreeAndResultsVerify) {
  util::Rng rng(GetParam() * 7919 + 13);
  for (int instance = 0; instance < 6; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0 || space.invariantSize() == space.size()) {
      continue;  // degenerate invariant: nothing to synthesize
    }
    std::string outcome;
    expectEnginesAgree(p, space,
                       "seed " + std::to_string(GetParam()) + " instance " +
                           std::to_string(instance),
                       outcome);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProtocolDifferential,
                         ::testing::Range<std::uint64_t>(0, 15));

// The same differential over protocols with guarded actions, so δ_p is not
// empty and preprocessing (removePreexistingCycles), closure and C1 see an
// input relation. Draws whose I is not closed in δ_p are skipped (the CLI
// rejects those under Problem III.1). The wall counts its outcomes, so the
// coverage is measured: at least one success and one unremovable
// pre-existing cycle must occur.
TEST(RandomGuardedProtocolDifferential, EnginesAgreeOnInputRelations) {
  std::map<std::string, int> outcomes;
  int openInvariant = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    util::Rng rng(seed * 104729 + 7);
    for (int instance = 0; instance < 6; ++instance) {
      const protocol::Protocol p = randomProtocol(rng, /*guarded=*/true);
      const explicitstate::StateSpace space(p);
      if (space.invariantSize() == 0 ||
          space.invariantSize() == space.size()) {
        continue;
      }
      symbolic::Encoding enc(p);
      const symbolic::SymbolicProtocol sp(enc);
      if (!verify::isClosed(sp, sp.protocolRelation(), sp.invariant())) {
        ++openInvariant;
        continue;
      }
      std::string outcome;
      expectEnginesAgree(p, space,
                         "seed " + std::to_string(seed) + " instance " +
                             std::to_string(instance),
                         outcome);
      if (HasFatalFailure()) return;
      ++outcomes[outcome];
    }
  }
  std::string summary = std::to_string(openInvariant) + " open I";
  int successes = 0;
  for (const auto& [outcome, count] : outcomes) {
    summary += ", " + outcome + ": " + std::to_string(count);
    if (outcome.starts_with("pass ")) successes += count;
  }
  RecordProperty("outcomes", summary);
  EXPECT_GE(successes, 1) << summary;
  EXPECT_GE(outcomes[core::toString(core::Failure::PreexistingCycleUnremovable)],
            1)
      << summary;
}

/// A lint finding: rule id and source position.
using Finding = std::tuple<std::string, int, int>;

/// Brute force over every in-domain state: the guard-unsat,
/// guard-tautology, dead-assignment and action-identity findings that
/// docs/lint_rules.md defines, one dead-assignment per assignment.
std::multiset<Finding> oracleFindings(const protocol::Protocol& p) {
  const std::vector<int> domains = p.domains();
  std::vector<std::vector<int>> states{{}};
  for (const int d : domains) {
    std::vector<std::vector<int>> longer;
    for (const std::vector<int>& s : states) {
      for (int v = 0; v < d; ++v) {
        longer.push_back(s);
        longer.back().push_back(v);
      }
    }
    states = std::move(longer);
  }
  std::multiset<Finding> out;
  for (const protocol::Process& proc : p.processes) {
    for (const protocol::Action& a : proc.actions) {
      const auto at = [&](const char* rule) {
        return Finding{rule, a.loc.line, a.loc.column};
      };
      std::vector<const std::vector<int>*> enabled;
      for (const std::vector<int>& s : states) {
        if (protocol::evalBool(*a.guard, s)) enabled.push_back(&s);
      }
      if (enabled.empty()) {
        out.insert(at("guard-unsat"));
        continue;
      }
      if (enabled.size() == states.size()) out.insert(at("guard-tautology"));
      bool identity = true;
      for (const protocol::Assignment& asg : a.assigns) {
        bool dead = true;
        for (const std::vector<int>* s : enabled) {
          dead = dead && protocol::evalInt(*asg.value, *s) == (*s)[asg.var];
        }
        if (dead) out.insert(at("dead-assignment"));
        identity = identity && dead;
      }
      if (identity) out.insert(at("action-identity"));
    }
  }
  return out;
}

// The linter's exact semantic rules against the brute-force oracle, on
// guarded draws with degenerate actions added. Each draw is printed and
// linted as source, so every action has its own position, and the wall
// asserts the (rule, position) multisets are equal. It counts its hits
// per rule, and every rule must both fire and stay silent somewhere.
TEST(RandomLintDifferential, ExactRulesMatchBruteForce) {
  const std::set<std::string> rules = {"guard-unsat", "guard-tautology",
                                       "dead-assignment", "action-identity"};
  std::map<std::string, int> hits;
  int actions = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    util::Rng rng(seed * 1299709 + 3);
    for (int instance = 0; instance < 6; ++instance) {
      const std::string where = "seed " + std::to_string(seed) +
                                " instance " + std::to_string(instance);
      const std::string text = lang::printProtocol(
          randomProtocol(rng, /*guarded=*/true, /*degenerate=*/true));
      const protocol::Protocol p = lang::parseProtocol(text);
      analysis::Diagnostics diags;
      ASSERT_TRUE(analysis::lintSource(text, diags)) << where;
      std::multiset<Finding> linted;
      for (const analysis::Diagnostic& d : diags.items()) {
        if (rules.contains(d.ruleId)) {
          linted.insert({d.ruleId, d.loc.line, d.loc.column});
        }
      }
      const std::multiset<Finding> expected = oracleFindings(p);
      ASSERT_EQ(linted, expected)
          << where << "\n" << text << analysis::formatText(diags, where);
      for (const Finding& f : expected) ++hits[std::get<0>(f)];
      for (const protocol::Process& proc : p.processes) {
        actions += static_cast<int>(proc.actions.size());
      }
    }
  }
  std::string summary = std::to_string(actions) + " actions";
  for (const std::string& rule : rules) {
    summary += ", " + rule + ": " + std::to_string(hits[rule]);
  }
  RecordProperty("hits", summary);
  for (const std::string& rule : rules) {
    EXPECT_GE(hits[rule], 1) << summary;
    EXPECT_LT(hits[rule], actions) << summary;
  }
}

class RandomProtocolWeak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProtocolWeak, RanksAgreeWithExplicitBfs) {
  util::Rng rng(GetParam() * 104729 + 7);
  for (int instance = 0; instance < 4; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0) continue;

    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const core::Ranking ranking = core::computeRanks(sp);
    const explicitstate::SynthResult ex =
        explicitstate::addStrongConvergenceExplicit(space);

    // Rank-by-rank agreement between the two ComputeRanks implementations.
    for (std::size_t i = 0; i < ranking.ranks.size(); ++i) {
      for (const std::uint64_t s :
           symbolic::decodeStates(enc, ranking.ranks[i])) {
        EXPECT_EQ(ex.ranks[s], static_cast<std::int64_t>(i))
            << "seed " << GetParam() << " state " << s;
      }
    }
    for (const std::uint64_t s :
         symbolic::decodeStates(enc, ranking.unreachable)) {
      EXPECT_EQ(ex.ranks[s], explicitstate::kRankInfinity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProtocolWeak,
                         ::testing::Range<std::uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// Analysis parity under complement edges: satCount, forEachSat (via
// decodeStates) and pickState must agree with the explicit state space on
// random protocols — for a predicate AND its complement, since the
// complemented operand exercises the 2^n - count correction and the
// effective-edge walks that the representation rewrite introduced.
// ---------------------------------------------------------------------------

class AnalysisParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalysisParity, CountEnumerateAndWitnessMatchExplicit) {
  util::Rng rng(GetParam() * 15485863 + 11);
  for (int instance = 0; instance < 4; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const bdd::Bdd inv = sp.invariant();
    // A genuinely complemented operand: everything valid outside I.
    const bdd::Bdd outside = enc.validCur() & !inv;

    std::vector<std::uint64_t> inStates;
    std::vector<std::uint64_t> outStates;
    for (explicitstate::StateId s = 0; s < space.size(); ++s) {
      (space.inInvariant(s) ? inStates : outStates).push_back(s);
    }

    // satCount parity (countStates divides out the next-state copy and
    // invalid codes; satCountOf's complement correction sits underneath).
    EXPECT_DOUBLE_EQ(enc.countStates(inv),
                     static_cast<double>(inStates.size()))
        << "seed " << GetParam() << " instance " << instance;
    EXPECT_DOUBLE_EQ(enc.countStates(outside),
                     static_cast<double>(outStates.size()));

    // forEachSat parity: decodeStates enumerates every satisfying cur-state
    // assignment; ascending packed codes must match the explicit scan.
    EXPECT_EQ(symbolic::decodeStates(enc, inv), inStates)
        << "seed " << GetParam() << " instance " << instance;
    EXPECT_EQ(symbolic::decodeStates(enc, outside), outStates);

    // pickState parity: the pick (SCC pivots and --verify witnesses use
    // it) lies in the set it was drawn from and is the VarId-lexicographic
    // minimum of the explicit scan, on both sides of the complement.
    // Compared as unpacked vectors: packState puts variable 0 in the least
    // significant digit, so packed order is not VarId order.
    const auto expectLexminPick = [&](const bdd::Bdd& set,
                                      const std::vector<std::uint64_t>& members,
                                      bool inInvariant) {
      if (members.empty()) return;
      std::vector<int> lexmin = symbolic::unpackState(p, members.front());
      for (const std::uint64_t s : members) {
        lexmin = std::min(lexmin, symbolic::unpackState(p, s));
      }
      const std::vector<int> picked = sp.pickState(set);
      EXPECT_EQ(space.inInvariant(symbolic::packState(p, picked)), inInvariant)
          << "seed " << GetParam() << " instance " << instance;
      EXPECT_EQ(picked, lexmin)
          << "seed " << GetParam() << " instance " << instance;
    };
    expectLexminPick(inv, inStates, true);
    expectLexminPick(outside, outStates, false);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisParity,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Image-layer reference: SymbolicProtocol's counted products must equal
// their spelled-out formulas BDD for BDD, on the whole relation and on a
// restricted one (the SCC trim loop's shape), and each product must count
// exactly once; the `within` overloads must equal the product ∧ within.
// The formulas are the ones the fused kernels replaced: an AndExists on
// the next levels renamed back, and a rename forward before an AndExists.
// (The suite is named for the engine class that used to wrap these
// products.)
// ---------------------------------------------------------------------------

/// Renames a next-state predicate to the current levels.
bdd::Bdd nextToCur(const symbolic::Encoding& enc, const bdd::Bdd& f) {
  std::vector<bdd::Var> perm(enc.manager().varCount());
  std::iota(perm.begin(), perm.end(), bdd::Var{0});
  for (const auto& [cur, next] : enc.bitPairs()) perm[next] = cur;
  return f.rename(perm);
}

class ImageEngineReference
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImageEngineReference, ProductsAgreeBddForBdd) {
  util::Rng rng(GetParam() * 2654435761 + 17);
  for (int instance = 0; instance < 3; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    // Random protocols carry no actions of their own (recovery is what
    // gets synthesized), so run the products over the candidate relations.
    bdd::Bdd rel = enc.manager().falseBdd();
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      rel |= sp.candidates(j);
    }
    const std::string where = "seed " + std::to_string(GetParam()) +
                              " instance " + std::to_string(instance);
    const bdd::Bdd curCube = enc.manager().cube(enc.allCurLevels());
    const auto image = [&](const bdd::Bdd& s) {
      return nextToCur(enc, (rel & s).exists(curCube));
    };
    const auto preimage = [&](const bdd::Bdd& s) {
      return (rel & enc.curToNext(s)).exists(enc.nextCube());
    };
    EXPECT_EQ(sp.sources(rel), rel.exists(enc.nextCube())) << where;
    EXPECT_EQ(sp.targets(rel), nextToCur(enc, rel.exists(curCube))) << where;

    const bdd::Bdd inv = sp.invariant();
    const bdd::Bdd valid = sp.enc().validCur();
    const bdd::Bdd notI = valid & !inv;
    const bdd::Bdd restrictedRel = sp.restrictRel(rel, notI);
    EXPECT_EQ(restrictedRel, rel & notI & enc.curToNext(notI)) << where;
    const std::vector<bdd::Bdd> sets{enc.manager().falseBdd(), valid, inv,
                                     notI, sp.image(rel, inv),
                                     sp.preimage(rel, notI)};
    const std::size_t images0 = sp.imageOps();
    const std::size_t preimages0 = sp.preimageOps();
    for (const bdd::Bdd& s : sets) {
      EXPECT_EQ(sp.image(rel, s), image(s)) << where;
      EXPECT_EQ(sp.preimage(rel, s), preimage(s)) << where;
      EXPECT_EQ(sp.image(restrictedRel, s), sp.image(rel, s & notI) & notI)
          << where;
      EXPECT_EQ(sp.preimage(restrictedRel, s),
                sp.preimage(rel, s & notI) & notI)
          << where;
    }
    EXPECT_EQ(sp.imageOps() - images0, 3 * sets.size()) << where;
    EXPECT_EQ(sp.preimageOps() - preimages0, 3 * sets.size()) << where;

    // The within overloads, each within set against each state set (the
    // complemented ones included), counted once per product.
    const std::vector<bdd::Bdd> withins{enc.manager().trueBdd(), valid, inv,
                                        notI, !inv, sp.image(rel, notI)};
    const std::size_t images1 = sp.imageOps();
    const std::size_t preimages1 = sp.preimageOps();
    for (const bdd::Bdd& s : sets) {
      for (const bdd::Bdd& w : withins) {
        EXPECT_EQ(sp.image(rel, s, w), image(s) & w) << where;
        EXPECT_EQ(sp.preimage(rel, s, w), preimage(s) & w) << where;
      }
    }
    EXPECT_EQ(sp.imageOps() - images1, sets.size() * withins.size()) << where;
    EXPECT_EQ(sp.preimageOps() - preimages1, sets.size() * withins.size())
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImageEngineReference,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------------
// Layout differential testing: the BDD level order changes node counts
// only — synthesis outcomes, passes, and the decoded programs must match
// the declared layout exactly, also when sifting moves the levels
// mid-run, and so must the --verify witnesses of both relations.
// This is what keeps pickState/pickTransition honest.
// ---------------------------------------------------------------------------

/// The interleaved (cur, next) pair blocks dealt round-robin from the two
/// halves of the layout (pair order 0, P/2, 1, P/2+1, ...), the same
/// deliberately bad order bench/ablation_encoding installs. Every pair
/// stays adjacent, so the cur<->next renamings stay order-preserving.
std::vector<bdd::Var> dealtPairOrder(const symbolic::Encoding& enc) {
  const auto& pairs = enc.bitPairs();
  const std::size_t half = (pairs.size() + 1) / 2;
  std::vector<bdd::Var> order;
  order.reserve(2 * pairs.size());
  for (std::size_t i = 0; i < half; ++i) {
    for (const std::size_t p : {i, half + i}) {
      if (p >= pairs.size()) continue;
      order.push_back(pairs[p].first);
      order.push_back(pairs[p].second);
    }
  }
  return order;
}

/// Same success, failure, pass, relation and per-process additions,
/// compared through decodeRelation (layout-independent).
void expectSameSynthesis(const symbolic::Encoding& encA,
                         const core::StrongResult& a,
                         const symbolic::Encoding& encB,
                         const core::StrongResult& b,
                         const std::string& where) {
  ASSERT_EQ(a.success, b.success) << where;
  EXPECT_EQ(static_cast<int>(a.failure), static_cast<int>(b.failure))
      << where;
  EXPECT_EQ(a.stats.passCompleted, b.stats.passCompleted) << where;
  EXPECT_EQ(symbolic::decodeRelation(encA, a.relation),
            symbolic::decodeRelation(encB, b.relation))
      << where;
  ASSERT_EQ(a.addedPerProcess.size(), b.addedPerProcess.size()) << where;
  for (std::size_t j = 0; j < a.addedPerProcess.size(); ++j) {
    EXPECT_EQ(symbolic::decodeRelation(encA, a.addedPerProcess[j]),
              symbolic::decodeRelation(encB, b.addedPerProcess[j]))
        << where << " process " << j;
  }
}

/// The --verify witnesses of a relation: the non-trivial SCCs of ¬I in
/// detection order (lockstep pivots come from pickState), the concrete
/// cycle extracted from each, the reported deadlock state, and each
/// part's canonical transition out of ¬I (the greedy pass's pick).
struct Witnesses {
  std::vector<std::vector<std::uint64_t>> components;
  std::vector<std::vector<std::vector<int>>> cycles;
  std::vector<int> deadlock;
  std::vector<std::pair<std::vector<int>, std::vector<int>>> transitions;

  bool operator==(const Witnesses&) const = default;
};

Witnesses witnesses(const symbolic::SymbolicProtocol& sp, const bdd::Bdd& rel,
                    const std::vector<bdd::Bdd>& parts) {
  const verify::Report rep = verify::check(sp, rel);
  Witnesses w;
  for (const bdd::Bdd& c : rep.cycles) {
    w.components.push_back(symbolic::decodeStates(sp.enc(), c));
    std::vector<std::vector<int>> cycle;
    for (const verify::Step& step : verify::extractCycle(sp, rel, c, parts)) {
      cycle.push_back(step.state);
    }
    w.cycles.push_back(std::move(cycle));
  }
  if (!rep.deadlocks.isFalse()) w.deadlock = sp.pickState(rep.deadlocks);
  const bdd::Bdd notI = sp.enc().validCur() & !sp.invariant();
  for (const bdd::Bdd& part : parts) {
    if (!(part & notI).isFalse()) {
      w.transitions.push_back(sp.pickTransition(part & notI));
    }
  }
  return w;
}

/// Witnesses of the input relation (per-process parts) and of the
/// synthesized one (per-process additions).
std::pair<Witnesses, Witnesses> allWitnesses(
    const symbolic::SymbolicProtocol& sp, const core::StrongResult& r) {
  std::vector<bdd::Bdd> perProcess;
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    perProcess.push_back(sp.processRelation(j));
  }
  return {witnesses(sp, sp.protocolRelation(), perProcess),
          witnesses(sp, r.relation, r.addedPerProcess)};
}

class LayoutDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayoutDifferential, DealtLayoutSynthesisIdenticalToDeclared) {
  util::Rng rng(GetParam() * 7919 + 13);  // same stream as the engine test
  for (int instance = 0; instance < 3; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0 || space.invariantSize() == space.size()) {
      continue;
    }

    symbolic::Encoding encD(p);
    symbolic::SymbolicProtocol spD(encD);
    const core::StrongResult d = core::addStrongConvergence(spD);

    symbolic::Encoding encX(p);
    encX.manager().setLevelOrder(dealtPairOrder(encX));
    symbolic::SymbolicProtocol spX(encX);
    const core::StrongResult x = core::addStrongConvergence(spX);

    const std::string where = "seed " + std::to_string(GetParam()) +
                              " instance " + std::to_string(instance);
    expectSameSynthesis(encD, d, encX, x, where);
    EXPECT_TRUE(allWitnesses(spD, d) == allWitnesses(spX, x)) << where;
  }
}

TEST_P(LayoutDifferential, ScrambledDeclarationWithSiftingAgrees) {
  // Scramble the declaration order (renameVars keeps the protocol
  // semantically identical up to state relabeling), then run the same
  // instance under its declared layout and under the dealt layout with
  // sifting at a small threshold, so the levels also move mid-run.
  util::Rng rng(GetParam() * 524287 + 41);
  for (int instance = 0; instance < 2; ++instance) {
    protocol::Protocol p = randomProtocol(rng);
    std::vector<protocol::VarId> perm(p.vars.size());
    std::iota(perm.begin(), perm.end(), protocol::VarId{0});
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    p = protocol::renameVars(p, perm);
    const explicitstate::StateSpace space(p);
    if (space.invariantSize() == 0 || space.invariantSize() == space.size()) {
      continue;
    }

    symbolic::Encoding encD(p);
    symbolic::SymbolicProtocol spD(encD);
    const core::StrongResult d = core::addStrongConvergence(spD);

    symbolic::Encoding encX(p);
    bdd::Manager& m = encX.manager();
    m.setLevelOrder(dealtPairOrder(encX));
    m.enableAutoReorder();
    // These instances peak at a few hundred live nodes: a 64-node threshold
    // makes sifting run in nearly every instance (2Ki never fired).
    m.setReorderThreshold(std::size_t{1} << 6);
    symbolic::SymbolicProtocol spX(encX);
    const core::StrongResult x = core::addStrongConvergence(spX);

    const std::string where = "seed " + std::to_string(GetParam()) +
                              " instance " + std::to_string(instance);
    expectSameSynthesis(encD, d, encX, x, where);
    EXPECT_TRUE(allWitnesses(spD, d) == allWitnesses(spX, x)) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutDifferential,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------------
// Fused group-selection products: each primitive must return exactly the
// BDD of the conjunction it avoids materializing. Domains 2-3 leave invalid
// codes in every encoding, so the validCur fence is exercised too.
// ---------------------------------------------------------------------------

/// Each valid state kept with probability 1/2.
bdd::Bdd randomStates(const symbolic::Encoding& enc, util::Rng& rng) {
  const protocol::Protocol& p = enc.proto();
  std::uint64_t size = 1;
  for (const protocol::Variable& v : p.vars) size *= v.domain;
  bdd::Bdd out = enc.manager().falseBdd();
  for (std::uint64_t s = 0; s < size; ++s) {
    if (rng.flip()) out |= enc.stateBdd(symbolic::unpackState(p, s));
  }
  return out;
}

/// Each candidate transition of process j kept with probability 1/2.
bdd::Bdd randomCandidates(const symbolic::SymbolicProtocol& sp, std::size_t j,
                          util::Rng& rng) {
  const symbolic::Encoding& enc = sp.enc();
  bdd::Bdd out = enc.manager().falseBdd();
  for (const auto& [from, to] :
       symbolic::decodeRelation(enc, sp.candidates(j))) {
    if (!rng.flip()) continue;
    out |= enc.stateBdd(symbolic::unpackState(enc.proto(), from)) &
           sp.onNext(enc.stateBdd(symbolic::unpackState(enc.proto(), to)));
  }
  return out;
}

class GroupProducts : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupProducts, FusedProductsEqualSpelledOutExpansions) {
  util::Rng rng(GetParam() * 6151 + 3);
  for (int instance = 0; instance < 4; ++instance) {
    const protocol::Protocol p = randomProtocol(rng);
    const symbolic::Encoding enc(p);
    const symbolic::SymbolicProtocol sp(enc);
    const bdd::Bdd valid = enc.validCur();
    std::vector<bdd::Bdd> sets{enc.manager().falseBdd(), valid,
                               sp.invariant(), valid & !sp.invariant()};
    for (int k = 0; k < 4; ++k) sets.push_back(randomStates(enc, rng));

    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      const bdd::Bdd cand = sp.candidates(j);
      for (const bdd::Bdd& from : sets) {
        for (const bdd::Bdd& to : sets) {
          EXPECT_TRUE(sp.groupsBetween(j, from, to) ==
                      (sp.groupExpand(j, cand & from & sp.onNext(to)) & cand))
              << "seed " << GetParam() << " instance " << instance
              << " process " << j;
        }
        EXPECT_TRUE(sp.groupExpand(j, cand, from) ==
                    (cand & sp.hideUnreadables(j, from)))
            << "seed " << GetParam() << " instance " << instance
            << " process " << j;
      }
      // Single-set products hold for any frame-respecting t and any s,
      // including unfenced sets with invalid codes.
      const std::vector<bdd::Bdd> ts{cand, sp.processRelation(j),
                                     randomCandidates(sp, j, rng),
                                     enc.manager().falseBdd()};
      for (const bdd::Bdd& t : ts) {
        for (const bdd::Bdd& s : sets) {
          for (const bdd::Bdd& x : {s, !s}) {
            EXPECT_TRUE(sp.groupExpand(j, t, x) == sp.groupExpand(j, t & x))
                << "seed " << GetParam() << " instance " << instance
                << " process " << j;
            EXPECT_TRUE(sp.groupExpandNext(j, t, x) ==
                        sp.groupExpand(j, t & sp.onNext(x)))
                << "seed " << GetParam() << " instance " << instance
                << " process " << j;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupProducts,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------------
// Ranking operands: computeRanks builds each p_im part from the state
// predicate ∃u_j.I and advances its BFS by the preimage of the explored
// set. The reference below spells out the form it replaced — p_im from the
// group expansion E_j(A_j ∧ I), and a BFS that takes the preimage of the
// newest rank only — and the two must agree BDD for BDD. The random
// protocols carry guarded actions, so δ_p takes part in p_im and the BFS.
// ---------------------------------------------------------------------------

core::Ranking frontierRanks(const symbolic::SymbolicProtocol& sp) {
  const symbolic::Encoding& enc = sp.enc();
  const bdd::Bdd inv = sp.invariant();
  core::Ranking out;
  out.pim = enc.manager().falseBdd();
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    const bdd::Bdd all = sp.candidates(j);
    out.pim |= sp.processRelation(j) | (all & !sp.groupExpand(j, all, inv));
  }
  bdd::Bdd explored = inv;
  bdd::Bdd frontier = inv;
  out.ranks.push_back(inv);
  for (;;) {
    frontier = sp.preimage(out.pim, frontier) & enc.validCur() & !explored;
    if (frontier.isFalse()) break;
    out.ranks.push_back(frontier);
    explored |= frontier;
  }
  out.unreachable = enc.validCur() & !explored;
  return out;
}

void expectSameRanking(const symbolic::SymbolicProtocol& sp,
                       const std::string& what) {
  const core::Ranking want = frontierRanks(sp);
  const core::Ranking got = core::computeRanks(sp);
  EXPECT_TRUE(got.pim == want.pim) << what;
  ASSERT_EQ(got.ranks.size(), want.ranks.size()) << what;
  for (std::size_t i = 0; i < want.ranks.size(); ++i) {
    EXPECT_TRUE(got.ranks[i] == want.ranks[i]) << what << " rank " << i;
  }
  EXPECT_TRUE(got.unreachable == want.unreachable) << what;
}

class RankingOperands : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RankingOperands, ExploredBfsEqualsFrontierBfs) {
  util::Rng rng(GetParam() * 3581 + 11);
  for (int instance = 0; instance < 6; ++instance) {
    const protocol::Protocol p = randomProtocol(rng, /*guarded=*/true);
    const symbolic::Encoding enc(p);
    const symbolic::SymbolicProtocol sp(enc);
    EXPECT_FALSE(sp.protocolRelation().isFalse());
    expectSameRanking(sp, "seed " + std::to_string(GetParam()) +
                              " instance " + std::to_string(instance));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingOperands,
                         ::testing::Range<std::uint64_t>(0, 24));

TEST(RankingOperandsCaseStudies, ExploredBfsEqualsFrontierBfs) {
  const std::vector<std::pair<std::string, protocol::Protocol>> studies{
      {"token_ring(4,3)", casestudies::tokenRing(4, 3)},
      {"matching(5)", casestudies::matching(5)},
      {"coloring(5)", casestudies::coloring(5)},
      {"gouda_acharya(5)", casestudies::matchingGoudaAcharyaAsPrinted(5)}};
  for (const auto& [name, p] : studies) {
    const symbolic::Encoding enc(p);
    const symbolic::SymbolicProtocol sp(enc);
    expectSameRanking(sp, name);
  }
}

}  // namespace
