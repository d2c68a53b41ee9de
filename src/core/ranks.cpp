#include "core/ranks.hpp"

#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace stsyn::core {

using bdd::Bdd;

Ranking computeRanks(const symbolic::SymbolicProtocol& sp,
                     SynthesisStats* stats, symbolic::ImagePolicy policy,
                     std::size_t workers) {
  double elapsed = 0.0;
  Ranking out;
  std::size_t frontierSteps = 0;
  symbolic::ImageEngineStats engineStats;
  {
    obs::AccumSpan timeIt(elapsed, "ranking", "synthesis");

    const Bdd inv = sp.invariant();

    // Step 1: p_im = delta_p union the weakest groups starting in ¬I,
    // kept per process so the BFS products can stay per process too.
    // A group has a member starting in I iff its expansion intersects
    // I x S'; such groups are excluded wholesale (constraint C1).
    std::vector<Bdd> pimParts;
    pimParts.reserve(sp.processCount());
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      util::checkCancellation();
      const Bdd all = sp.candidates(j);
      const Bdd touchingI = sp.groupExpand(j, all, inv);
      pimParts.push_back(sp.processRelation(j) | (all & !touchingI));
    }
    const symbolic::ImageEngine engine(sp, std::move(pimParts), policy,
                                       workers);
    out.pim = engine.relation();

    // Step 2: backward BFS from I. Each iteration i collects the states
    // outside `explored` with a single p_im transition into the previous
    // frontier — by the BFS shortest-path property, preimage(frontier)
    // finds exactly the same new states as preimage(explored) while
    // quantifying a much smaller operand.
    Bdd explored = inv;
    Bdd frontier = inv;
    out.ranks.push_back(inv);
    for (;;) {
      util::checkCancellation();
      frontier = engine.preimage(frontier) & sp.enc().validCur() & !explored;
      ++frontierSteps;
      if (frontier.isFalse()) break;
      out.ranks.push_back(frontier);
      explored |= frontier;
    }
    out.unreachable = sp.enc().validCur() & !explored;
    engineStats = engine.drainStats();
    timeIt.span().arg("ranks", out.maxRank());
    timeIt.span().arg("complete", out.complete());
    timeIt.span().arg("image_policy", symbolic::toString(engine.policy()));
    timeIt.span().arg("image_workers", engine.workerCount());
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
