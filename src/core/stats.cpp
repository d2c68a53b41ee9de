#include "core/stats.hpp"

#include <cstdint>
#include <cstdio>

#include "bdd/bdd.hpp"
#include "obs/json.hpp"

namespace stsyn::core {

void SynthesisStats::copyManagerStats(const bdd::ManagerStats& ms) {
  peakLiveNodes = ms.peakLiveNodes;
  peakReachableNodes = ms.peakReachableNodes;
  reorderRuns = ms.reorderRuns;
  reorderSeconds = ms.reorderSeconds;
  reorderNodesSaved = ms.reorderNodesBefore - ms.reorderNodesAfter;
  gcRuns = ms.gcRuns;
  cacheLookups = ms.cacheLookups;
  cacheHits = ms.cacheHits;
  cacheStores = ms.cacheStores;
  uniqueProbes = ms.uniqueProbes;
}

std::string SynthesisStats::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "ranking %.3fs, scc %.3fs (%zu calls, %zu components), "
                "total %.3fs, M=%zu, program %zu nodes, avg scc %.1f nodes, "
                "peak %zu nodes, pass %d",
                rankingSeconds, sccSeconds, sccDetectionCalls,
                sccComponentsFound, totalSeconds, rankCount, programNodes,
                avgSccNodes(), peakLiveNodes, passCompleted);
  std::string out = buf;
  if (reorderRuns > 0) {
    std::snprintf(buf, sizeof buf, ", reorder %zux %.3fs (-%zu nodes)",
                  reorderRuns, reorderSeconds, reorderNodesSaved);
    out += buf;
  }
  return out;
}

void SynthesisStats::writeJson(obs::JsonWriter& w) const {
  w.beginObject();
  w.field("ranking_seconds", rankingSeconds);
  w.field("scc_seconds", sccSeconds);
  w.field("total_seconds", totalSeconds);
  w.field("rank_count", static_cast<std::uint64_t>(rankCount));
  w.field("scc_detection_calls",
          static_cast<std::uint64_t>(sccDetectionCalls));
  w.field("scc_fast_path_hits", static_cast<std::uint64_t>(sccFastPathHits));
  w.field("scc_components_found",
          static_cast<std::uint64_t>(sccComponentsFound));
  w.field("scc_nodes_total", static_cast<std::uint64_t>(sccNodesTotal));
  w.field("scc_symbolic_steps", static_cast<std::uint64_t>(sccSymbolicSteps));
  w.field("avg_scc_nodes", avgSccNodes());
  w.field("program_nodes", static_cast<std::uint64_t>(programNodes));
  w.field("peak_live_nodes", static_cast<std::uint64_t>(peakLiveNodes));
  w.field("peak_reachable_nodes",
          static_cast<std::uint64_t>(peakReachableNodes));
  w.field("reorder_runs", static_cast<std::uint64_t>(reorderRuns));
  w.field("reorder_seconds", reorderSeconds);
  w.field("reorder_nodes_saved",
          static_cast<std::uint64_t>(reorderNodesSaved));
  w.field("gc_runs", static_cast<std::uint64_t>(gcRuns));
  w.field("cache_lookups", static_cast<std::uint64_t>(cacheLookups));
  w.field("cache_hits", static_cast<std::uint64_t>(cacheHits));
  w.field("cache_hit_rate", cacheHitRate());
  w.field("cache_stores", static_cast<std::uint64_t>(cacheStores));
  w.field("unique_probes", static_cast<std::uint64_t>(uniqueProbes));
  w.field("pass_completed", passCompleted);
  w.field("image_ops", static_cast<std::uint64_t>(imageOps));
  w.field("preimage_ops", static_cast<std::uint64_t>(preimageOps));
  w.field("frontier_steps", static_cast<std::uint64_t>(frontierSteps));
  w.endObject();
}

}  // namespace stsyn::core
