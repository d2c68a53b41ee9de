#include "core/weak.hpp"

#include "util/timer.hpp"

namespace stsyn::core {

WeakResult addWeakConvergence(const symbolic::SymbolicProtocol& sp) {
  WeakResult out;
  util::Stopwatch total;
  const std::size_t preimageOps0 = sp.preimageOps();
  out.ranking = computeRanks(sp, &out.stats);  // takes no image products
  out.stats.preimageOps = sp.preimageOps() - preimageOps0;
  out.relation = out.ranking.pim;
  out.rankInfinityStates = out.ranking.unreachable;
  out.success = out.ranking.complete();
  out.stats.totalSeconds = total.seconds();
  out.stats.programNodes = out.relation.nodeCount();
  out.stats.copyManagerStats(sp.manager().stats());
  return out;
}

}  // namespace stsyn::core
