#include "cli/driver.hpp"

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>

#include "analysis/lint.hpp"
#include "core/diagnose.hpp"
#include "core/portfolio.hpp"
#include "core/ranks.hpp"
#include "core/weak.hpp"
#include "extraction/actions.hpp"
#include "extraction/export.hpp"
#include "lang/printer.hpp"
#include "obs/json.hpp"
#include "symbolic/relations.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"
#include "verify/counterexample.hpp"
#include "verify/verify.hpp"

namespace stsyn::cli {

namespace {

/// printf-style append to an ostream; keeps the narration byte-identical
/// to the historical printf-based CLI (tests match these strings).
void print(std::ostream& os, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char stack[512];
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(stack, sizeof stack, fmt, copy);
  va_end(copy);
  if (n >= 0 && static_cast<std::size_t>(n) < sizeof stack) {
    os << stack;
  } else if (n >= 0) {
    std::string big(static_cast<std::size_t>(n) + 1, '\0');
    std::vsnprintf(big.data(), big.size(), fmt, args);
    big.resize(static_cast<std::size_t>(n));
    os << big;
  }
  va_end(args);
}

/// Renders the stabilized protocol exactly the way `--output` always
/// wrote it, so a file written by the CLI and a program returned by the
/// daemon are byte-identical.
std::string renderProgram(const protocol::Protocol& original,
                          const protocol::Protocol& stabilized) {
  return "# generated by stsyn: " + original.name +
         " with synthesized convergence\n" + lang::printProtocol(stabilized);
}

int runVerify(const protocol::Protocol& p,
              const symbolic::SymbolicProtocol& sp,
              const symbolic::Encoding& enc, Report& report,
              std::ostream& out) {
  report.mode = "verify";
  const util::Stopwatch total;
  const std::size_t imageOps0 = sp.imageOps();
  const std::size_t preimageOps0 = sp.preimageOps();
  const verify::Report rep = verify::check(sp, sp.protocolRelation());
  report.stats.totalSeconds = total.seconds();
  report.stats.imageOps = sp.imageOps() - imageOps0;
  report.stats.preimageOps = sp.preimageOps() - preimageOps0;
  report.stats.sccComponentsFound = rep.cycles.size();
  report.stats.copyManagerStats(sp.manager().stats());
  report.haveStats = true;
  print(out, "closure of I:        %s\n", rep.closed ? "yes" : "NO");
  print(out, "deadlock-free in ~I: %s (%.0f deadlocks)\n",
        rep.deadlockFree ? "yes" : "NO", enc.countStates(rep.deadlocks));
  print(out, "cycle-free in ~I:    %s (%zu non-progress components)\n",
        rep.cycleFree ? "yes" : "NO", rep.cycles.size());
  print(out, "weakly converges:    %s\n", rep.weaklyConverges ? "yes" : "NO");
  print(out, "verdict: %s\n",
        rep.stronglyStabilizing() ? "STRONGLY SELF-STABILIZING"
                                  : "NOT self-stabilizing");
  if (!rep.closed) {
    const bdd::Bdd escape = sp.protocolRelation() & sp.invariant() &
                            sp.onNext(enc.validCur() & !sp.invariant());
    const auto [s0, s1] = sp.pickTransition(escape);
    print(out, "closure violation: %s --> %s\n",
          verify::formatState(p, s0).c_str(),
          verify::formatState(p, s1).c_str());
  }
  if (!rep.deadlockFree) {
    print(out, "example deadlock: %s\n",
          verify::formatState(p, sp.pickState(rep.deadlocks)).c_str());
  }
  if (!rep.cycleFree) {
    std::vector<bdd::Bdd> perProcess;
    for (std::size_t j = 0; j < sp.processCount(); ++j) {
      perProcess.push_back(sp.processRelation(j));
    }
    const auto cycle = verify::extractCycle(sp, sp.protocolRelation(),
                                            rep.cycles.front(), perProcess);
    print(out, "non-progress cycle (schedule %s):\n%s\n",
          verify::cycleSchedule(p, cycle).c_str(),
          verify::formatCycle(p, cycle).c_str());
  }
  report.success = report.verified = rep.stronglyStabilizing();
  return rep.stronglyStabilizing() ? 0 : 1;
}

int runWeak(const symbolic::SymbolicProtocol& sp,
            const symbolic::Encoding& enc, Report& report,
            std::ostream& out) {
  report.mode = "weak";
  const core::WeakResult w = core::addWeakConvergence(sp);
  report.stats = w.stats;
  report.haveStats = true;
  report.success = report.verified = w.success;
  if (!w.success) {
    report.failure = "rank-infinity states exist";
    print(out,
          "weak convergence: IMPOSSIBLE — %.0f states can never "
          "reach the invariant\n",
          enc.countStates(w.rankInfinityStates));
    return 1;
  }
  print(out, "weak convergence added: M = %zu ranks, %s\n",
        w.ranking.maxRank(), w.stats.summary().c_str());
  print(out, "rank histogram (states at recovery distance i):\n");
  for (std::size_t i = 0; i < w.ranking.ranks.size(); ++i) {
    print(out, "  Rank[%zu]: %.0f states\n", i,
          enc.countStates(w.ranking.ranks[i]));
  }
  return 0;
}

int runPortfolio(const protocol::Protocol& p, const Options& opt,
                 Report& report, RunOutcome& outcome, std::ostream& out) {
  report.mode = "portfolio";
  std::vector<core::Schedule> schedules;
  for (std::size_t rot = 0; rot < p.processCount(); ++rot) {
    schedules.push_back(core::rotatedSchedule(p.processCount(), rot));
  }
  core::PortfolioOptions popt;
  popt.threads = opt.portfolio;
  popt.strong = opt.strong;
  const core::PortfolioResult pr =
      core::synthesizePortfolio(p, schedules, popt);
  report.havePortfolio = true;
  report.portfolioWinner = pr.winner;
  report.portfolioWallSeconds = pr.wallSeconds;
  for (const core::PortfolioInstance& inst : pr.instances) {
    report.portfolioRows.push_back({core::toString(inst.schedule), inst.ran,
                                    inst.result.success,
                                    inst.result.stats.passCompleted,
                                    inst.wallSeconds});
  }
  if (const core::SynthesisStats* ws = pr.winnerStats()) {
    report.stats = *ws;
    report.haveStats = true;
  }
  if (!pr.success()) {
    report.failure = "all schedules failed";
    print(out, "portfolio synthesis FAILED for all %zu schedules\n",
          schedules.size());
    return 1;
  }
  const auto& win = pr.instances[pr.winner];
  const verify::Report rep = verify::check(*win.symbolic, win.result.relation);
  print(out,
        "portfolio: schedule %s won (pass %d), verified=%s\n"
        "  %zu of %zu instances ran, wall %.3fs\n  %s\n",
        core::toString(win.schedule).c_str(), win.result.stats.passCompleted,
        rep.stronglyStabilizing() ? "yes" : "NO", pr.instancesRun(),
        pr.instances.size(), pr.wallSeconds,
        win.result.stats.summary().c_str());
  report.success = report.verified = rep.stronglyStabilizing();
  if (!opt.quiet) {
    for (const auto& pa : extraction::extractAllActions(
             *win.symbolic, win.result.addedPerProcess)) {
      print(out, "%s", extraction::formatActions(p, pa).c_str());
    }
  }
  if (report.success) {
    outcome.program = renderProgram(
        p, extraction::toProtocol(*win.symbolic, win.result.addedPerProcess));
  }
  return rep.stronglyStabilizing() ? 0 : 1;
}

int runStrong(const protocol::Protocol& p,
              const symbolic::SymbolicProtocol& sp,
              const symbolic::Encoding& enc, const Options& opt,
              Report& report, RunOutcome& outcome, std::ostream& out) {
  const core::StrongResult r = core::addStrongConvergence(sp, opt.strong);
  report.stats = r.stats;
  report.haveStats = true;
  report.success = r.success;
  if (!r.success) {
    report.failure = core::toString(r.failure);
    print(out, "synthesis FAILED: %s (remaining deadlocks: %.0f)\n",
          core::toString(r.failure), enc.countStates(r.remainingDeadlocks));
    if (opt.explain) {
      const core::Diagnosis d = core::diagnose(sp, r);
      print(out, "%s", d.summary(p).c_str());
    }
    return 1;
  }
  const verify::Report rep = verify::check(sp, r.relation);
  report.verified = rep.stronglyStabilizing();
  print(out,
        "synthesis succeeded: pass %d, verified strongly "
        "stabilizing=%s\n  %s\n  worst-case recovery: %zu steps\n",
        r.stats.passCompleted, rep.stronglyStabilizing() ? "yes" : "NO",
        r.stats.summary().c_str(), rep.recoveryDepth);
  print(out, "  rank histogram:");
  for (std::size_t i = 0; i < r.ranking.ranks.size(); ++i) {
    print(out, " %zu:%.0f", i, enc.countStates(r.ranking.ranks[i]));
  }
  print(out, "\n");
  if (!opt.quiet) {
    print(out, "\nadded recovery actions:\n");
    for (const auto& pa :
         extraction::extractAllActions(sp, r.addedPerProcess)) {
      print(out, "%s", extraction::formatActions(p, pa).c_str());
    }
  }
  outcome.program =
      renderProgram(p, extraction::toProtocol(sp, r.addedPerProcess));
  return rep.stronglyStabilizing() ? 0 : 1;
}

}  // namespace

std::string Report::renderStatsJson() const {
  namespace obs = stsyn::obs;
  std::ostringstream buffer;
  obs::JsonWriter w(buffer);
  w.beginObject();
  w.field("schema_version", core::kStatsJsonSchemaVersion);
  w.field("tool", "stsyn");
  if (haveProtocol) {
    w.key("protocol");
    w.beginObject();
    w.field("name", protoName);
    w.field("processes", processes);
    w.field("states", states);
    w.field("legitimate_states", legitimate);
    w.endObject();
  }
  w.field("mode", mode);
  w.field("success", success);
  w.field("verified", verified);
  w.field("cache_hit", cacheHit);
  w.field("deadline_exceeded", deadlineExceeded);
  if (!failure.empty()) w.field("failure", failure);
  if (haveStats) {
    w.key("stats");
    stats.writeJson(w);
  }
  if (havePortfolio) {
    w.key("portfolio");
    w.beginObject();
    w.field("winner", portfolioWinner == SIZE_MAX
                          ? static_cast<std::int64_t>(-1)
                          : static_cast<std::int64_t>(portfolioWinner));
    w.field("wall_seconds", portfolioWallSeconds);
    std::uint64_t ran = 0;
    for (const PortfolioRow& row : portfolioRows) ran += row.ran ? 1 : 0;
    w.field("instances_run", ran);
    w.key("instances");
    w.beginArray();
    for (const PortfolioRow& row : portfolioRows) {
      w.beginObject();
      w.field("schedule", row.schedule);
      w.field("ran", row.ran);
      w.field("success", row.success);
      w.field("pass", row.pass);
      w.field("wall_seconds", row.wallSeconds);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.endObject();
  return buffer.str();
}

bool parseSchedule(const std::string& arg, const protocol::Protocol& p,
                   core::Schedule& out, std::ostream& err) {
  out.clear();
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string name =
        arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    bool found = false;
    for (std::size_t j = 0; j < p.processes.size(); ++j) {
      if (p.processes[j].name == name) {
        out.push_back(j);
        found = true;
        break;
      }
    }
    if (!found) {
      err << "stsyn: unknown process '" << name << "' in schedule\n";
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return core::isValidSchedule(out, p.processes.size());
}

RunOutcome runProtocol(const protocol::Protocol& p, const Options& opt,
                       Report& report, std::ostream& out, std::ostream& err) {
  RunOutcome outcome;

  // The per-run deadline. Scoped to the whole run — encoding, fixpoints,
  // and post-synthesis verification all poll it — and released before
  // return so report rendering can never be interrupted.
  util::CancelToken deadline;
  std::optional<util::CancelScope> scope;
  if (opt.timeoutMs > 0) {
    deadline.setTimeout(std::chrono::milliseconds(opt.timeoutMs));
    scope.emplace(&deadline);
  }

  try {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    print(out, "protocol %s: %zu processes, %.0f states, %.0f legitimate\n",
          p.name.c_str(), p.processCount(), p.stateCount(),
          enc.countStates(sp.invariant()));
    report.protoName = p.name;
    report.haveProtocol = true;
    report.processes = static_cast<double>(p.processCount());
    report.states = p.stateCount();
    report.legitimate = enc.countStates(sp.invariant());

    if (opt.mode == Mode::Verify) {
      outcome.exitCode = runVerify(p, sp, enc, report, out);
      return outcome;
    }

    if (!verify::isClosed(sp, sp.protocolRelation(), sp.invariant())) {
      err << "stsyn: the invariant is not closed in the input protocol "
             "(Problem III.1 requires closure)\n";
      outcome.exitCode = 1;
      return outcome;
    }

    if (opt.mode == Mode::Weak) {
      outcome.exitCode = runWeak(sp, enc, report, out);
      return outcome;
    }

    Options effective = opt;
    if (!opt.scheduleArg.empty() &&
        !parseSchedule(opt.scheduleArg, p, effective.strong.schedule, err)) {
      outcome.exitCode = 2;
      return outcome;
    }

    if (opt.portfolio > 0) {
      outcome.exitCode = runPortfolio(p, effective, report, outcome, out);
      return outcome;
    }
    outcome.exitCode =
        runStrong(p, sp, enc, effective, report, outcome, out);
    return outcome;
  } catch (const util::CancelledError&) {
    // Unwinding already destroyed every Encoding/Manager built above on
    // this thread (the portfolio re-pins its workers' managers first).
    report.success = false;
    report.verified = false;
    report.deadlineExceeded = true;
    report.failure = "deadline exceeded";
    err << "stsyn: deadline exceeded after " << opt.timeoutMs << " ms\n";
    outcome.exitCode = 1;
    outcome.deadlineExceeded = true;
    outcome.program.clear();
    return outcome;
  }
}

int runLintSource(const std::string& source, const std::string& displayPath,
                  const Options& opt, std::ostream& out) {
  analysis::Diagnostics diags;
  analysis::lintSource(source, diags, opt.lintOptions);
  if (opt.lintFormat == "sarif") {
    out << analysis::formatSarif(diags, displayPath);
  } else {
    out << analysis::formatText(diags, displayPath);
  }
  return diags.failed(opt.werror) ? 1 : 0;
}

}  // namespace stsyn::cli
