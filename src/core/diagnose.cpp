#include "core/diagnose.hpp"

#include <sstream>

#include "symbolic/scc.hpp"
#include "verify/counterexample.hpp"

namespace stsyn::core {

using bdd::Bdd;
using symbolic::SymbolicProtocol;

const char* toString(ProcessBlock b) {
  switch (b) {
    case ProcessBlock::CanAct:
      return "has a C1-allowed recovery group";
    case ProcessBlock::NoCandidates:
      return "cannot change any variable";
    case ProcessBlock::BlockedByC1:
      return "blocked by C1 (every group has a groupmate starting in I)";
    case ProcessBlock::BlockedByCycles:
      return "blocked by cycle resolution (every allowed group closes a "
             "cycle)";
  }
  return "?";
}

Diagnosis diagnose(const SymbolicProtocol& sp, const StrongResult& result,
                   std::size_t maxWitnesses) {
  Diagnosis out;
  out.failure = result.failure;
  const Bdd inv = sp.invariant();
  const Bdd notI = sp.enc().validCur() & !inv;

  if (result.failure == Failure::NoStabilizingVersionExists &&
      !result.ranking.unreachable.isFalse()) {
    out.unreachableWitness = sp.pickState(result.ranking.unreachable);
    return out;
  }
  if (result.failure != Failure::UnresolvedDeadlocks) return out;

  out.remainingDeadlockCount =
      sp.enc().countStates(result.remainingDeadlocks);
  Bdd remaining = result.remainingDeadlocks;
  while (!remaining.isFalse() && out.deadlocks.size() < maxWitnesses) {
    DeadlockDiagnosis d;
    d.state = sp.pickState(remaining);
    const Bdd sB = sp.enc().stateBdd(d.state);
    remaining = remaining.minus(sB);

    d.processes.resize(sp.processCount());
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      const Bdd groups = sp.groupExpand(j, sp.candidates(j), sB);
      if (groups.isFalse()) {
        d.processes[j] = ProcessBlock::NoCandidates;
        continue;
      }
      const Bdd allowed = groups.minus(sp.groupExpand(j, groups, inv));
      if (allowed.isFalse()) {
        d.processes[j] = ProcessBlock::BlockedByC1;
        continue;
      }
      // Would adding any allowed group (alone) close a cycle? If at least
      // one keeps the relation acyclic, the process could act.
      const bool someAcyclic = [&] {
        Bdd pool = allowed;
        while (!pool.isFalse()) {
          const auto [s0, s1] = sp.pickTransition(pool & sB);
          const Bdd member =
              sp.enc().andNext(sp.enc().stateBdd(s0), sp.enc().stateBdd(s1));
          const Bdd group = sp.groupExpand(j, member);
          pool = pool.minus(group);
          const Bdd combined = result.relation | group;
          const Bdd cone = symbolic::cycleCone(sp, combined, group, notI);
          if (cone.isFalse() || !symbolic::hasCycle(sp, combined, cone)) {
            return true;
          }
          if ((pool & sB).isFalse()) break;
        }
        return false;
      }();
      d.processes[j] = someAcyclic ? ProcessBlock::CanAct
                                   : ProcessBlock::BlockedByCycles;
    }
    out.deadlocks.push_back(std::move(d));
  }
  return out;
}

std::string Diagnosis::summary(const protocol::Protocol& proto) const {
  std::ostringstream os;
  switch (failure) {
    case Failure::None:
      os << "synthesis succeeded; nothing to diagnose\n";
      return os.str();
    case Failure::NoStabilizingVersionExists:
      os << "UNREALIZABLE: by Theorem IV.1 no stabilizing version exists.\n"
         << "Witness state with no possible recovery path:\n  "
         << verify::formatState(proto, unreachableWitness) << "\n";
      return os.str();
    case Failure::PreexistingCycleUnremovable:
      os << "the input protocol has a non-progress cycle outside I whose "
            "transition groups extend into I: the cycle can be neither "
            "kept (violates convergence) nor removed (would change "
            "delta_p|I)\n";
      return os.str();
    case Failure::UnresolvedDeadlocks:
      break;
  }
  os << remainingDeadlockCount
     << " deadlock state(s) remained unresolved. Witnesses:\n";
  for (const DeadlockDiagnosis& d : deadlocks) {
    os << "  " << verify::formatState(proto, d.state) << "\n";
    for (std::size_t j = 0; j < d.processes.size(); ++j) {
      os << "    " << proto.processes[j].name << ": "
         << toString(d.processes[j]) << "\n";
    }
  }
  return os.str();
}

}  // namespace stsyn::core
