#include "explicitstate/synthesis.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>

#include "explicitstate/graph.hpp"
#include "explicitstate/groups.hpp"

namespace stsyn::explicitstate {

const char* toString(SynthFailure f) {
  switch (f) {
    case SynthFailure::None:
      return "success";
    case SynthFailure::NoStabilizingVersionExists:
      return "no stabilizing version exists (rank-infinity states)";
    case SynthFailure::PreexistingCycleUnremovable:
      return "pre-existing cycle outside I has groupmates inside I";
    case SynthFailure::UnresolvedDeadlocks:
      return "heuristic exhausted all passes with deadlocks remaining";
  }
  return "?";
}

namespace {

/// Mutable synthesis state; mirrors core::Synthesizer step for step.
class ExplicitSynthesizer {
 public:
  ExplicitSynthesizer(const StateSpace& space, const GroupUniverse& groups,
                      const std::vector<std::size_t>& schedule)
      : space_(space), groups_(groups), schedule_(schedule) {
    const protocol::Protocol& p = space.proto();
    pssProc_.resize(p.processes.size());
    added_.resize(p.processes.size());
    const TransitionSystem ts = buildTransitions(space);
    for (StateId s = 0; s < space.size(); ++s) {
      for (const auto& [t, proc] : ts.succ[s]) {
        pssProc_[proc].insert({s, t});
      }
    }
    recomputeDeadlocks();
  }

  [[nodiscard]] std::vector<Edge> relation() const {
    std::set<Edge> all;
    for (const auto& proc : pssProc_) all.insert(proc.begin(), proc.end());
    return {all.begin(), all.end()};
  }

  [[nodiscard]] const std::vector<std::set<Edge>>& added() const {
    return added_;
  }

  [[nodiscard]] const std::set<StateId>& deadlocks() const {
    return deadlocks_;
  }

  /// Every group with an edge inside a cycle outside I is checked before
  /// any is erased, so a failed run leaves the input relation untouched.
  [[nodiscard]] bool removePreexistingCycles() {
    std::set<GroupKey> toRemove;
    for (const auto& component : currentSccs()) {
      const std::set<StateId> inC(component.begin(), component.end());
      for (std::size_t j = 0; j < pssProc_.size(); ++j) {
        for (const Edge& e : pssProc_[j]) {
          if (inC.contains(e.first) && inC.contains(e.second)) {
            toRemove.insert(groups_.groupOf(j, e.first, e.second));
          }
        }
      }
    }
    for (const GroupKey& g : toRemove) {
      if (groups_.sigTouchesInvariant(g.process, g.readSig)) return false;
    }
    for (const GroupKey& g : toRemove) {
      for (const Edge& e : groups_.members(g)) pssProc_[g.process].erase(e);
    }
    recomputeDeadlocks();
    return true;
  }

  [[nodiscard]] bool hasCycleOutsideI() const {
    return !currentSccs().empty();
  }

  bool addConvergence(const std::set<StateId>& from, int rankTo, int passNo,
                      const std::vector<std::int64_t>& ranks) {
    std::set<StateId> ruledOutTargets =
        passNo == 1 ? deadlocks_ : std::set<StateId>{};
    for (const std::size_t j : schedule_) {
      addRecovery(j, from, rankTo, ranks, ruledOutTargets);
      recomputeDeadlocks();
      if (deadlocks_.empty()) return true;
      if (passNo == 1) ruledOutTargets = deadlocks_;
    }
    return false;
  }

  bool greedyResolve() {
    for (const std::size_t j : schedule_) {
      if (deadlocks_.empty()) return true;
      // The pool: C1-allowed, non-diagonal groups with a member leaving a
      // state that is a deadlock NOW (at process entry).
      std::set<GroupKey> pool;
      for (const StateId s : deadlocks_) {
        const std::vector<int> state = space_.unpack(s);
        const std::uint64_t sig = groups_.readSig(j, state);
        if (groups_.sigTouchesInvariant(j, sig)) continue;
        forEachWriteSig(j, [&](std::uint64_t wsig) {
          const GroupKey key{j, sig, wsig};
          if (!groups_.isDiagonal(key)) pool.insert(key);
        });
      }
      while (!pool.empty()) {
        // The symbolic engine picks the canonical smallest member pair —
        // value-lexicographic over (current state, next state) in variable
        // order — among members leaving a current deadlock; mirror that
        // exactly.
        GroupKey best{};
        bool found = false;
        std::vector<int> bestKey;
        for (const GroupKey& g : pool) {
          for (const Edge& e : groups_.members(g)) {
            if (!deadlocks_.contains(e.first)) continue;
            std::vector<int> key = canonicalKey(e);
            if (!found || key < bestKey) {
              found = true;
              bestKey = std::move(key);
              best = g;
            }
          }
        }
        if (!found) break;  // no group leaves a remaining deadlock
        pool.erase(best);
        const std::vector<Edge> members = groups_.members(best);
        if (closesCycle(members)) continue;
        for (const Edge& e : members) {
          pssProc_[best.process].insert(e);
          added_[best.process].insert(e);
        }
        recomputeDeadlocks();
        if (deadlocks_.empty()) return true;
      }
    }
    return deadlocks_.empty();
  }

 private:
  void addRecovery(std::size_t j, const std::set<StateId>& from, int rankTo,
                   const std::vector<std::int64_t>& ranks,
                   const std::set<StateId>& ruledOutTargets) {
    // Candidate groups: a member from From whose target has rank rankTo
    // (rankTo < 0 means "anywhere", pass 3).
    std::set<GroupKey> groups;
    for (const StateId s : from) {
      const std::vector<int> state = space_.unpack(s);
      const std::uint64_t sig = groups_.readSig(j, state);
      if (groups_.sigTouchesInvariant(j, sig)) continue;  // C1
      forEachWriteSig(j, [&](std::uint64_t wsig) {
        const GroupKey key{j, sig, wsig};
        if (groups_.isDiagonal(key)) return;
        const StateId target = groups_.apply(key, s);
        if (target == s) return;
        if (rankTo >= 0 && ranks[target] != rankTo) return;
        groups.insert(key);
      });
    }
    if (groups.empty()) return;

    // C4 (pass 1): drop groups with a member reaching a ruled-out target.
    if (!ruledOutTargets.empty()) {
      for (auto it = groups.begin(); it != groups.end();) {
        bool bad = false;
        for (const Edge& e : groups_.members(*it)) {
          if (ruledOutTargets.contains(e.second)) {
            bad = true;
            break;
          }
        }
        it = bad ? groups.erase(it) : std::next(it);
      }
      if (groups.empty()) return;
    }

    // C3: SCCs of (pss ∪ batch)|¬I kill every intersecting group.
    std::set<Edge> batch;
    for (const GroupKey& g : groups) {
      for (const Edge& e : groups_.members(g)) batch.insert(e);
    }
    for (const auto& component : sccsWith(batch)) {
      const std::set<StateId> inC(component.begin(), component.end());
      for (auto it = groups.begin(); it != groups.end();) {
        bool bad = false;
        for (const Edge& e : groups_.members(*it)) {
          if (inC.contains(e.first) && inC.contains(e.second)) {
            bad = true;
            break;
          }
        }
        it = bad ? groups.erase(it) : std::next(it);
      }
    }
    for (const GroupKey& g : groups) {
      for (const Edge& e : groups_.members(g)) {
        pssProc_[j].insert(e);
        added_[j].insert(e);
      }
    }
  }

  template <typename Fn>
  void forEachWriteSig(std::size_t j, Fn&& fn) const {
    const protocol::Process& proc = space_.proto().processes[j];
    std::uint64_t combos = 1;
    for (const protocol::VarId v : proc.writes) {
      combos *= static_cast<std::uint64_t>(space_.proto().vars[v].domain);
    }
    for (std::uint64_t wsig = 0; wsig < combos; ++wsig) fn(wsig);
  }

  /// Non-trivial SCCs of (pss ∪ extra) restricted to ¬I.
  [[nodiscard]] std::vector<std::vector<StateId>> sccsWith(
      const std::set<Edge>& extra) const {
    std::set<Edge> all(extra);
    for (const auto& proc : pssProc_) all.insert(proc.begin(), proc.end());
    const std::vector<Edge> edges(all.begin(), all.end());
    const TransitionSystem ts = fromEdges(space_, edges);
    std::vector<bool> notI(space_.size());
    for (StateId s = 0; s < space_.size(); ++s) {
      notI[s] = !space_.inInvariant(s);
    }
    return nontrivialSccs(ts, notI);
  }

  [[nodiscard]] std::vector<std::vector<StateId>> currentSccs() const {
    return sccsWith({});
  }

  [[nodiscard]] bool closesCycle(const std::vector<Edge>& members) const {
    std::set<Edge> extra(members.begin(), members.end());
    return !sccsWith(extra).empty();
  }

  /// The symbolic engine's canonical member order (pickTransition): the
  /// current-state values in variable order, then the next-state values —
  /// independent of the BDD layout.
  [[nodiscard]] std::vector<int> canonicalKey(const Edge& e) const {
    std::vector<int> key = space_.unpack(e.first);
    const std::vector<int> b = space_.unpack(e.second);
    key.insert(key.end(), b.begin(), b.end());
    return key;
  }

  void recomputeDeadlocks() {
    std::vector<bool> hasOut(space_.size(), false);
    for (const auto& proc : pssProc_) {
      for (const Edge& e : proc) hasOut[e.first] = true;
    }
    deadlocks_.clear();
    for (StateId s = 0; s < space_.size(); ++s) {
      if (!space_.inInvariant(s) && !hasOut[s]) deadlocks_.insert(s);
    }
  }

  const StateSpace& space_;
  const GroupUniverse& groups_;
  const std::vector<std::size_t>& schedule_;
  std::vector<std::set<Edge>> pssProc_;
  std::vector<std::set<Edge>> added_;
  std::set<StateId> deadlocks_;
};

/// p_im and its ranks: the protocol plus every C1-allowed candidate edge.
/// When `pimEdges` is non-null, the materialized p_im edge list is
/// returned through it (sorted, duplicate-free).
std::vector<std::int64_t> computeRanksExplicit(
    const StateSpace& space, const GroupUniverse& groups,
    std::vector<Edge>* pimEdges = nullptr) {
  const protocol::Protocol& p = space.proto();
  const TransitionSystem base = buildTransitions(space);
  std::vector<Edge> edges;
  for (StateId s = 0; s < space.size(); ++s) {
    for (const auto& [t, proc] : base.succ[s]) edges.emplace_back(s, t);
    const std::vector<int> state = space.unpack(s);
    for (std::size_t j = 0; j < p.processes.size(); ++j) {
      const std::uint64_t sig = groups.readSig(j, state);
      if (groups.sigTouchesInvariant(j, sig)) continue;
      // Every write combination except the identity is a candidate.
      const protocol::Process& proc = p.processes[j];
      std::vector<int> writeVals(proc.writes.size());
      std::uint64_t combos = 1;
      for (const protocol::VarId v : proc.writes) {
        combos *= static_cast<std::uint64_t>(p.vars[v].domain);
      }
      for (std::uint64_t wsig = 0; wsig < combos; ++wsig) {
        std::uint64_t rest = wsig;
        std::vector<int> target = state;
        for (std::size_t w = 0; w < proc.writes.size(); ++w) {
          const auto d = static_cast<std::uint64_t>(
              p.vars[proc.writes[w]].domain);
          target[proc.writes[w]] = static_cast<int>(rest % d);
          rest /= d;
        }
        const StateId t = space.pack(target);
        if (t != s) edges.emplace_back(s, t);
      }
    }
  }
  const TransitionSystem pim = fromEdges(space, edges);
  if (pimEdges != nullptr) {
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    *pimEdges = std::move(edges);
  }
  std::vector<bool> inv(space.size());
  for (StateId s = 0; s < space.size(); ++s) inv[s] = space.inInvariant(s);
  return backwardRanks(pim, inv);
}

}  // namespace

SynthResult addStrongConvergenceExplicit(const StateSpace& space,
                                         const SynthOptions& options) {
  SynthResult out;
  const protocol::Protocol& p = space.proto();
  std::vector<std::size_t> schedule = options.schedule;
  if (schedule.empty()) {
    schedule.resize(p.processes.size());
    std::iota(schedule.begin(), schedule.end(), std::size_t{0});
  }
  if (options.maxPass < 1 || options.maxPass > 3) {
    throw std::invalid_argument("maxPass must be 1..3");
  }

  const GroupUniverse groups(space);
  out.ranks = computeRanksExplicit(space, groups);
  out.maxRank = 0;
  bool complete = true;
  for (const std::int64_t r : out.ranks) {
    if (r == kRankInfinity) {
      complete = false;
    } else {
      out.maxRank = std::max(out.maxRank, static_cast<std::size_t>(r));
    }
  }

  ExplicitSynthesizer syn(space, groups, schedule);

  const auto finish = [&](bool success, SynthFailure failure) {
    out.success = success;
    out.failure = failure;
    out.relation = syn.relation();
    out.addedPerProcess.clear();
    for (const auto& addedJ : syn.added()) {
      out.addedPerProcess.emplace_back(addedJ.begin(), addedJ.end());
    }
    out.remainingDeadlocks.assign(syn.deadlocks().begin(),
                                  syn.deadlocks().end());
    return out;
  };

  if (!complete) {
    return finish(false, SynthFailure::NoStabilizingVersionExists);
  }
  if (!syn.removePreexistingCycles()) {
    return finish(false, SynthFailure::PreexistingCycleUnremovable);
  }
  if (syn.deadlocks().empty() && !syn.hasCycleOutsideI()) {
    out.passCompleted = 0;
    return finish(true, SynthFailure::None);
  }

  for (int pass = 1; pass <= options.maxPass; ++pass) {
    out.passCompleted = pass;
    if (pass <= 2) {
      for (std::size_t i = 1; i <= out.maxRank; ++i) {
        std::set<StateId> from;
        for (StateId s : syn.deadlocks()) {
          if (out.ranks[s] == static_cast<std::int64_t>(i)) from.insert(s);
        }
        if (from.empty()) continue;
        if (syn.addConvergence(from, static_cast<int>(i) - 1, pass,
                               out.ranks)) {
          return finish(true, SynthFailure::None);
        }
      }
    } else {
      const std::set<StateId> from = syn.deadlocks();
      if (syn.addConvergence(from, /*rankTo=*/-1, pass, out.ranks)) {
        return finish(true, SynthFailure::None);
      }
    }
    if (syn.deadlocks().empty()) return finish(true, SynthFailure::None);
  }
  if (options.greedyCycleResolution && options.maxPass == 3) {
    out.passCompleted = 4;
    if (syn.greedyResolve()) return finish(true, SynthFailure::None);
  }
  return finish(false, SynthFailure::UnresolvedDeadlocks);
}

WeakSynthResult addWeakConvergenceExplicit(const StateSpace& space) {
  WeakSynthResult out;
  const GroupUniverse groups(space);
  out.ranks = computeRanksExplicit(space, groups, &out.relation);
  out.success = true;
  for (StateId s = 0; s < space.size(); ++s) {
    if (out.ranks[s] == kRankInfinity) {
      out.success = false;
      out.rankInfinityStates.push_back(s);
    }
  }
  return out;
}

}  // namespace stsyn::explicitstate
