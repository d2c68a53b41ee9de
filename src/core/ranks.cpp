#include "core/ranks.hpp"

#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/cancel.hpp"

namespace stsyn::core {

using bdd::Bdd;

Ranking computeRanks(const symbolic::SymbolicProtocol& sp,
                     SynthesisStats* stats) {
  double elapsed = 0.0;
  Ranking out;
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
    out.pim = sp.manager().falseBdd();
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      util::checkCancellation();
      out.pim |= sp.processRelation(j) |
                 (sp.candidates(j) & !sp.hideUnreadables(j, inv));
    }

    // Step 2: backward BFS from I. By the shortest-path property every
    // predecessor of an older rank is already explored, so each new layer
    // holds exactly the states with one transition into the previous rank.
    symbolic::BfsLayers bfs = symbolic::backwardBfs(sp, out.pim, inv);
    out.ranks = std::move(bfs.layers);
    out.unreachable = std::move(bfs.unreachable);
    timeIt.span().arg("ranks", out.maxRank());
    timeIt.span().arg("complete", out.complete());
    timeIt.span().arg("frontier_steps", out.ranks.size());
  }
  if (stats != nullptr) {
    stats->rankingSeconds += elapsed;
    stats->rankCount = out.maxRank();
    stats->frontierSteps += out.ranks.size();
  }
  return out;
}

}  // namespace stsyn::core
