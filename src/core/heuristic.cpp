#include "core/heuristic.hpp"

#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace stsyn::core {

using bdd::Bdd;
using symbolic::SymbolicProtocol;

const char* toString(Failure f) {
  switch (f) {
    case Failure::None:
      return "success";
    case Failure::NoStabilizingVersionExists:
      return "no stabilizing version exists (rank-infinity states)";
    case Failure::PreexistingCycleUnremovable:
      return "pre-existing cycle outside I has groupmates inside I";
    case Failure::UnresolvedDeadlocks:
      return "heuristic exhausted all passes with deadlocks remaining";
  }
  return "?";
}

namespace {

/// Mutable synthesis state threaded through the passes: pss, its
/// deadlocks, and the additions kept per process for extraction.
class Synthesizer {
 public:
  Synthesizer(const SymbolicProtocol& sp, const Schedule& schedule,
              SynthesisStats& stats)
      : sp_(sp),
        schedule_(schedule),
        stats_(stats),
        inv_(sp.invariant()),
        notI_(sp.enc().validCur() & !inv_),
        added_(sp.processCount()),
        pss_(sp.protocolRelation()) {
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      added_[j] = sp.manager().falseBdd();
    }
    deadlocks_ = computeDeadlocks();
  }

  [[nodiscard]] const Bdd& pss() const { return pss_; }
  [[nodiscard]] const Bdd& deadlocks() const { return deadlocks_; }
  [[nodiscard]] std::vector<Bdd> added() const { return added_; }

  /// Preprocessing (Section V step 1): handle cycles that p itself already
  /// has outside I. Groups whose members start in I cannot be removed
  /// (that would change delta_p|I) — fail. Other participating groups are
  /// removed; Problem III.1 only freezes delta_pss|I, and the resulting
  /// deadlocks are the passes' job to resolve. On success pss|¬I is
  /// acyclic: every edge inside every component is gone, and a cycle of
  /// the smaller relation would lie inside one of them.
  /// Detection scans all of ¬I here: the passes' acyclicity invariant that
  /// lets them restrict it to a cycle cone does not hold yet.
  /// Runs before any recovery is added, so pss is still p.
  [[nodiscard]] bool removePreexistingCycles() {
    const symbolic::SccResult sccs = detectSccs(pss_, notI_);
    if (sccs.components.empty()) return true;
    std::vector<Bdd> proc;
    for (std::size_t j = 0; j < sp_.processCount(); ++j) {
      proc.push_back(sp_.processRelation(j));
    }
    for (const Bdd& c : sccs.components) {
      const Bdd inC = sp_.enc().andNext(c, c);
      for (std::size_t j = 0; j < sp_.processCount(); ++j) {
        const Bdd part = proc[j] & inC;
        if (part.isFalse()) continue;
        const Bdd group = sp_.groupExpand(j, part) & proc[j];
        if (!(group & inv_).isFalse()) return false;  // groupmate starts in I
        proc[j] = proc[j].minus(group);
      }
    }
    pss_ = sp_.manager().falseBdd();
    for (const Bdd& r : proc) pss_ |= r;
    deadlocks_ = computeDeadlocks();
    return true;
  }

  /// Greedy cycle resolution (the implementation's "pass 4", see
  /// StrongOptions::greedyCycleResolution): for each process in schedule
  /// order, enumerate the C1-allowed groups leaving a remaining deadlock
  /// state and add them one at a time, keeping a group only if the union
  /// stays acyclic outside I (checked inside the group's cycle cone only).
  /// Returns true when no deadlock remains.
  bool greedyResolve() {
    for (std::size_t idx = 0; idx < schedule_.size(); ++idx) {
      const std::size_t j = schedule_[idx];
      if (deadlocks_.isFalse()) return true;
      const Bdd cand = sp_.candidates(j);
      Bdd pool = sp_.groupExpand(j, cand, deadlocks_) & cand;
      pool = pool.minus(sp_.groupExpand(j, pool, inv_));
      while (!pool.isFalse()) {
        util::checkCancellation();
        const Bdd useful = pool & deadlocks_;
        if (useful.isFalse()) break;
        const auto [s0, s1] = sp_.pickTransition(useful);
        const Bdd member =
            sp_.enc().andNext(sp_.enc().stateBdd(s0), sp_.enc().stateBdd(s1));
        const Bdd group = sp_.groupExpand(j, member) & cand;
        pool = pool.minus(group);
        bool cyclic;
        {
          obs::AccumSpan timeIt(stats_.sccSeconds, "greedy_cycle_check",
                                "scc");
          const Bdd candidate = pss_ | group;
          const Bdd cone = symbolic::cycleCone(sp_, candidate, group, notI_,
                                               &stats_.sccSymbolicSteps);
          cyclic =
              !cone.isFalse() && symbolic::hasCycle(sp_, candidate, cone);
        }
        if (cyclic) continue;
        commit(j, group);
        deadlocks_ = computeDeadlocks();
        if (deadlocks_.isFalse()) return true;
      }
    }
    return deadlocks_.isFalse();
  }

  /// Add_Convergence (Figure 3): one walk over the schedule, adding
  /// recovery from From to To for each process in turn. Returns true when
  /// no deadlock state remains.
  bool addConvergence(const Bdd& from, const Bdd& to, int passNo) {
    obs::Span span("add_convergence", "synthesis");
    span.arg("pass", passNo);
    Bdd ruledOutTargets = passNo == 1 ? deadlocks_ : sp_.manager().falseBdd();
    for (std::size_t idx = 0; idx < schedule_.size(); ++idx) {
      util::checkCancellation();
      const std::size_t j = schedule_[idx];
      addRecovery(j, from, to, ruledOutTargets);
      deadlocks_ = computeDeadlocks();
      if (deadlocks_.isFalse()) return true;
      if (passNo == 1) ruledOutTargets = deadlocks_;  // Fig. 3 line 4
    }
    return false;
  }

 private:
  /// Add_Recovery for process j: include every group of j with a member in
  /// From x To, excluding groups with a member that starts in I (C1) or
  /// reaches a ruled-out target (C4 in pass 1); then discard groups whose
  /// inclusion closes a cycle outside I (C3, Identify_Resolve_Cycles).
  void addRecovery(std::size_t j, const Bdd& from, const Bdd& to,
                   const Bdd& ruledOutTargets) {
    Bdd groups;
    {
      obs::Span span("groups_between", "synthesis");
      groups = sp_.groupsBetween(j, from, to);
    }
    if (groups.isFalse()) return;

    // Drop groups with a member in ruledOutTrans = { (s0,s1) : s0 in I or
    // s1 ruled out } (C1 and C4), one fused product per disjunct.
    {
      obs::Span span("group_exclusion", "synthesis");
      groups = groups.minus(sp_.groupExpand(j, groups, inv_) |
                            sp_.groupExpandNext(j, groups, ruledOutTargets));
    }
    if (groups.isFalse()) return;

    // Identify_Resolve_Cycles: SCCs of (pss ∪ groups)|¬I; every group with
    // a transition inside a component is discarded. pss|¬I is acyclic by
    // construction throughout the passes, so every component lies in the
    // batch's cycle cone and takes one of its group edges: detection runs
    // on the cone only, and is skipped outright when the cone is empty
    // (the batch provably closes no cycle).
    const Bdd candidate = pss_ | groups;
    Bdd cone;
    {
      obs::AccumSpan timeIt(stats_.sccSeconds, "acyclic_increment", "scc");
      cone = symbolic::cycleCone(sp_, candidate, groups, notI_,
                                 &stats_.sccSymbolicSteps);
      if (cone.isFalse()) {
        stats_.sccFastPathHits += 1;
        commit(j, groups);
        return;
      }
    }
    {
      obs::AccumSpan timeIt(stats_.sccSeconds, "scc_detect", "scc");
      symbolic::SccResult sccs;
      groups = removeCyclicGroups(sp_, j, candidate, groups, cone, &sccs);
      recordDetection(sccs, cone, timeIt.span());
    }
    if (groups.isFalse()) return;

    commit(j, groups);
  }

  /// Adds an accepted batch of process j to pss.
  void commit(std::size_t j, const Bdd& groups) {
    added_[j] |= groups;
    pss_ |= groups;
  }

  /// Deadlocks of the current pss — valid ¬I states with no successor.
  [[nodiscard]] Bdd computeDeadlocks() const { return sp_.deadlocks(pss_); }

  /// Non-trivial SCCs of `rel` within all of ¬I, recorded.
  [[nodiscard]] symbolic::SccResult detectSccs(const Bdd& rel,
                                               const Bdd& domain) {
    obs::AccumSpan timeIt(stats_.sccSeconds, "scc_detect", "scc");
    symbolic::SccResult r = symbolic::nontrivialSccs(sp_, rel, domain);
    recordDetection(r, domain, timeIt.span());
    return r;
  }

  /// Records one SCC detection over `domain` in the stats and on its span.
  void recordDetection(const symbolic::SccResult& r, const Bdd& domain,
                       obs::Span& span) {
    span.arg("components", r.components.size());
    span.arg("symbolic_steps", r.symbolicSteps);
    span.arg("cone_nodes", domain.nodeCount());
    stats_.sccDetectionCalls += 1;
    stats_.sccComponentsFound += r.components.size();
    stats_.sccSymbolicSteps += r.symbolicSteps;
    for (const Bdd& c : r.components) stats_.sccNodesTotal += c.nodeCount();
  }

  const SymbolicProtocol& sp_;
  const Schedule& schedule_;
  SynthesisStats& stats_;
  Bdd inv_;
  Bdd notI_;
  std::vector<Bdd> added_;
  Bdd pss_;
  Bdd deadlocks_;
};

}  // namespace

Bdd removeCyclicGroups(const SymbolicProtocol& sp, std::size_t j,
                       const Bdd& candidate, Bdd groups, const Bdd& domain,
                       symbolic::SccResult* detection) {
  Bdd live = sp.restrictRel(groups, domain);
  symbolic::SccResult sccs = symbolic::nontrivialSccs(
      sp, candidate, domain, &live, [&](const Bdd& c) {
        const Bdd bad = sp.enc().andNext(live & c, c);
        if (!bad.isFalse()) {
          const Bdd removed = sp.groupExpand(j, bad);
          groups = groups.minus(removed);
          live = live.minus(removed);
        }
        return live;
      });
  if (detection != nullptr) *detection = std::move(sccs);
  return groups;
}

StrongResult addStrongConvergence(const SymbolicProtocol& sp,
                                  const StrongOptions& options) {
  StrongResult out;
  util::Stopwatch total;
  obs::Span synthSpan("add_strong_convergence", "synthesis");

  Schedule schedule = options.schedule.empty()
                          ? identitySchedule(sp.processCount())
                          : options.schedule;
  if (!isValidSchedule(schedule, sp.processCount())) {
    throw std::invalid_argument("addStrongConvergence: schedule is not a "
                                "permutation of the processes");
  }
  if (options.maxPass < 1 || options.maxPass > 3) {
    throw std::invalid_argument("addStrongConvergence: maxPass must be 1..3");
  }

  const std::size_t imageOps0 = sp.imageOps();
  const std::size_t preimageOps0 = sp.preimageOps();

  // Preprocessing: ranking approximation (Section IV). Rank-infinity states
  // refute the existence of any stabilizing version (Theorem IV.1).
  out.ranking = computeRanks(sp, &out.stats);

  Synthesizer syn(sp, schedule, out.stats);

  auto finish = [&](bool success, Failure failure) {
    out.success = success;
    out.failure = failure;
    out.relation = syn.pss();
    out.addedPerProcess = syn.added();
    out.remainingDeadlocks = syn.deadlocks();
    out.stats.totalSeconds += total.seconds();
    out.stats.programNodes = out.relation.nodeCount();
    out.stats.imageOps = sp.imageOps() - imageOps0;
    out.stats.preimageOps = sp.preimageOps() - preimageOps0;
    out.stats.copyManagerStats(sp.manager().stats());
    synthSpan.arg("success", success);
    synthSpan.arg("pass", out.stats.passCompleted);
    synthSpan.arg("program_nodes", out.stats.programNodes);
    return out;
  };

  if (!out.ranking.complete()) {
    return finish(false, Failure::NoStabilizingVersionExists);
  }
  if (!syn.removePreexistingCycles()) {
    return finish(false, Failure::PreexistingCycleUnremovable);
  }
  if (syn.deadlocks().isFalse()) {
    // Already strongly converging (e.g. re-running on a stabilizing input):
    // no deadlocks, and pss|¬I is acyclic after the step above.
    out.stats.passCompleted = 0;
    return finish(true, Failure::None);
  }

  const std::size_t M = out.ranking.maxRank();
  static constexpr const char* kPassNames[] = {"pass1", "pass2", "pass3"};
  for (int pass = 1; pass <= options.maxPass; ++pass) {
    obs::Span passSpan(kPassNames[pass - 1], "synthesis");
    out.stats.passCompleted = pass;
    if (pass <= 2) {
      for (std::size_t i = 1; i <= M; ++i) {
        const Bdd from = out.ranking.ranks[i] & syn.deadlocks();
        const Bdd to = out.ranking.ranks[i - 1];
        if (from.isFalse()) continue;
        if (syn.addConvergence(from, to, pass)) {
          return finish(true, Failure::None);
        }
      }
    } else {
      const Bdd from = syn.deadlocks();
      const Bdd to = sp.enc().validCur();
      if (syn.addConvergence(from, to, pass)) {
        return finish(true, Failure::None);
      }
    }
    if (syn.deadlocks().isFalse()) return finish(true, Failure::None);
  }
  if (options.greedyCycleResolution && options.maxPass == 3) {
    obs::Span passSpan("pass4_greedy", "synthesis");
    out.stats.passCompleted = 4;
    if (syn.greedyResolve()) return finish(true, Failure::None);
  }
  return finish(false, Failure::UnresolvedDeadlocks);
}

}  // namespace stsyn::core
