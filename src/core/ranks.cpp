#include "core/ranks.hpp"

#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "symbolic/frontier.hpp"
#include "util/cancel.hpp"

namespace stsyn::core {

using bdd::Bdd;

Ranking computeRanks(const symbolic::SymbolicProtocol& sp,
                     SynthesisStats* stats) {
  double elapsed = 0.0;
  Ranking out;
  std::size_t frontierSteps = 0;
  symbolic::ImageEngineStats engineStats;
  {
    obs::AccumSpan timeIt(elapsed, "ranking", "synthesis");

    const Bdd inv = sp.invariant();

    // Step 1: p_im = delta_p union the weakest groups starting in ¬I,
    // one process at a time.
    // A group has a member starting in I iff its source agrees with some
    // I-state on everything process j reads; such groups are excluded
    // wholesale (constraint C1). Since A_j keeps the unreadables unchanged,
    // that exclusion is the state predicate ∃u_j.I, not a relational
    // product: part_j = delta_j ∪ (A_j ∧ ¬∃u_j.I).
    Bdd pim = sp.manager().falseBdd();
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      util::checkCancellation();
      pim |= sp.processRelation(j) |
             (sp.candidates(j) & !sp.hideUnreadables(j, inv));
    }
    out.pim = pim;
    const symbolic::ImageEngine engine(sp, std::move(pim));

    // Step 2: backward BFS from I. Each round collects the states outside
    // `explored` with a p_im transition into `explored`; by the BFS
    // shortest-path property every predecessor of an older rank is already
    // explored, so these are exactly the states with one transition into
    // the previous rank. The operand is the explored set, not the newest
    // rank: a single rank is a badly shaped BDD. On coloring(30) the 16
    // operands total 42k nodes as explored sets and 48k as ranks, and
    // their preimages 46k against 414k.
    Bdd explored = inv;
    out.ranks.push_back(inv);
    for (;;) {
      util::checkCancellation();
      const Bdd rank =
          engine.preimage(explored) & sp.enc().validCur() & !explored;
      ++frontierSteps;
      if (rank.isFalse()) break;
      out.ranks.push_back(rank);
      explored |= rank;
    }
    out.unreachable = sp.enc().validCur() & !explored;
    engineStats = engine.drainStats();
    timeIt.span().arg("ranks", out.maxRank());
    timeIt.span().arg("complete", out.complete());
    timeIt.span().arg("frontier_steps", frontierSteps);
  }
  if (stats != nullptr) {
    stats->rankingSeconds += elapsed;
    stats->rankCount = out.maxRank();
    stats->frontierSteps += frontierSteps;
    stats->addEngine(engineStats);
  }
  return out;
}

}  // namespace stsyn::core
