// Instrumentation of a synthesis run — exactly the quantities the paper's
// experimental section reports: ranking time, SCC-detection time, total
// time (Figures 6/8/10) and BDD node counts: average SCC size and total
// program size (Figures 7/9/11).
#pragma once

#include <cstddef>
#include <string>

namespace stsyn::obs {
class JsonWriter;
}  // namespace stsyn::obs

namespace stsyn::bdd {
struct ManagerStats;
}  // namespace stsyn::bdd

namespace stsyn::core {

/// Version of the machine-readable stats/bench documents. Bump on any
/// removal or semantic change of a key; pure additions keep the version
/// (see docs/observability.md for the policy).
///
/// v2: the top-level document gained `cache_hit` and `deadline_exceeded`
/// (always present, so consumers can branch on them without existence
/// checks — that guarantee is the semantic change that forced the bump).
/// v3: the three keys of the removed parallel image pool are gone (see
/// docs/observability.md).
/// v4: the two keys of the removed partitioned image path are gone, from
/// the stats object and from the portfolio rows (see
/// docs/observability.md).
/// v5: bench records carry this struct's writeJson object under `stats`;
/// their record-level copies of eight of its values are gone (see
/// docs/observability.md).
/// v6: the key naming the encoding's variable-order seed is gone with the
/// seed: every encoding lays its variables out in declaration order (see
/// docs/observability.md).
/// v7: the portfolio object's `symmetry_orbits`, `schedules_pruned` and
/// per-instance `pruned` keys are gone with orbit pruning (see
/// docs/observability.md).
/// v8: `scc_components_found` counts the components the passes' detection
/// visited, no longer every component of the searched domain, and
/// `image_ops`/`preimage_ops` include the cycle-core trim's products (see
/// docs/observability.md).
inline constexpr int kStatsJsonSchemaVersion = 8;

struct SynthesisStats {
  double rankingSeconds = 0.0;
  double sccSeconds = 0.0;
  double totalSeconds = 0.0;

  std::size_t rankCount = 0;  ///< M: number of non-empty ranks

  std::size_t sccDetectionCalls = 0;
  /// Batches proven acyclic by the incremental cone test, skipping full
  /// SCC detection (always the case for the coloring protocol).
  std::size_t sccFastPathHits = 0;
  /// Non-trivial SCCs visited: all of them in preprocessing and verify,
  /// in the passes only those reached before no seed was left.
  std::size_t sccComponentsFound = 0;
  std::size_t sccNodesTotal = 0;  ///< sum over components of BDD node counts
  std::size_t sccSymbolicSteps = 0;

  std::size_t programNodes = 0;   ///< BDD nodes of the synthesized relation
  std::size_t peakLiveNodes = 0;  ///< manager high-water mark
  /// High-water mark of the REACHABLE node count, sampled post-sweep at
  /// each GC (peakLiveNodes counts dead-but-unswept nodes too, so it
  /// mostly tracks the GC trigger schedule; this measures the function
  /// store). 0 when the run never collected.
  std::size_t peakReachableNodes = 0;

  std::size_t reorderRuns = 0;       ///< dynamic-reordering passes
  double reorderSeconds = 0.0;       ///< time spent sifting
  std::size_t reorderNodesSaved = 0; ///< cumulative live nodes freed by sifting

  std::size_t gcRuns = 0;        ///< manager garbage collections
  std::size_t cacheLookups = 0;  ///< operation-cache probes
  std::size_t cacheHits = 0;     ///< probes answered from the cache
  std::size_t cacheStores = 0;   ///< operation-cache result installs
  std::size_t uniqueProbes = 0;  ///< unique-table (mk) probes

  /// Pass that resolved the last deadlock: 1..3 are the paper's passes,
  /// 4 is the implementation's greedy cycle-resolution pass, 0 means the
  /// input needed no recovery.
  int passCompleted = 0;

  /// SymbolicProtocol::image / preimage products taken during this run
  /// (the difference of the protocol's counters over the run).
  std::size_t imageOps = 0;
  std::size_t preimageOps = 0;
  /// Backward-BFS rounds of the ranking fixpoint (one preimage of the
  /// explored set per round, the last one finding nothing new).
  std::size_t frontierSteps = 0;

  /// Copies the manager's peaks, GC, cache, unique-table and reorder
  /// counters (cumulative since the manager was built) into this run.
  void copyManagerStats(const bdd::ManagerStats& ms);

  /// Average SCC size in BDD nodes (0 when no SCC was ever formed), the
  /// metric plotted in the paper's Figures 7 and 11.
  [[nodiscard]] double avgSccNodes() const {
    return sccComponentsFound == 0
               ? 0.0
               : static_cast<double>(sccNodesTotal) /
                     static_cast<double>(sccComponentsFound);
  }

  /// Fraction of cache probes that hit (0 when no probe ever ran).
  [[nodiscard]] double cacheHitRate() const {
    return cacheLookups == 0
               ? 0.0
               : static_cast<double>(cacheHits) /
                     static_cast<double>(cacheLookups);
  }

  [[nodiscard]] std::string summary() const;

  /// Writes this struct as one JSON object (every field, snake_case keys).
  /// The enclosing document carries the schema version.
  void writeJson(obs::JsonWriter& w) const;
};

}  // namespace stsyn::core
