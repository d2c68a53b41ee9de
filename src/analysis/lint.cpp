#include "analysis/lint.hpp"

#include <set>
#include <stdexcept>

#include "lang/parser.hpp"
#include "symbolic/compile.hpp"
#include "symbolic/encoding.hpp"
#include "symbolic/relations.hpp"

namespace stsyn::analysis {

using protocol::Expr;
using protocol::Protocol;
using protocol::SourceLoc;
using protocol::ValidationIssue;
using protocol::VarId;

namespace {

/// Walks a boolean expression and flags comparisons of a variable against
/// a constant the variable can never equal/exceed: the comparison is then
/// decided at parse time, which almost always means a typo'd constant.
void checkComparisons(const Expr& e, const Protocol& p, const SourceLoc& loc,
                      const std::string& where, Diagnostics& diags) {
  switch (e.kind) {
    case Expr::Kind::Eq:
    case Expr::Kind::Ne:
    case Expr::Kind::Lt:
    case Expr::Kind::Le:
    case Expr::Kind::Gt:
    case Expr::Kind::Ge: {
      const Expr& a = *e.args[0];
      const Expr& b = *e.args[1];
      const Expr* var = nullptr;
      const Expr* cst = nullptr;
      if (a.kind == Expr::Kind::Ref && b.kind == Expr::Kind::Const) {
        var = &a;
        cst = &b;
      } else if (b.kind == Expr::Kind::Ref && a.kind == Expr::Kind::Const) {
        var = &b;
        cst = &a;
      }
      if (var != nullptr && var->var < p.vars.size()) {
        const protocol::Variable& v = p.vars[var->var];
        if (cst->value < 0 || cst->value >= v.domain) {
          diags.add("compare-out-of-domain", Severity::Warning,
                    where + ": comparison of " + v.name + " (domain 0.." +
                        std::to_string(v.domain - 1) + ") with constant " +
                        std::to_string(cst->value) +
                        " is decided at parse time",
                    loc);
        }
      }
      return;  // comparison operands are int-valued; nothing below to check
    }
    default:
      for (const protocol::ExprPtr& arg : e.args) {
        checkComparisons(*arg, p, loc, where, diags);
      }
  }
}

/// True when every variable the expression references exists — guards the
/// AST walks below against protocols whose validation already failed.
bool supportInRange(const Expr& e, const Protocol& p) {
  std::set<VarId> sup;
  protocol::collectSupport(e, sup);
  return sup.empty() || *sup.rbegin() < p.vars.size();
}

// ---------------------------------------------------------------------------
// AST tier.
// ---------------------------------------------------------------------------

void lintAst(const Protocol& p, Diagnostics& diags) {
  // Duplicate process names: later definitions shadow nothing semantically,
  // but schedules and diagnostics address processes by name.
  for (std::size_t j = 0; j < p.processes.size(); ++j) {
    for (std::size_t k = 0; k < j; ++k) {
      if (p.processes[j].name == p.processes[k].name) {
        diags.add("duplicate-process", Severity::Warning,
                  "process " + p.processes[j].name +
                      " is declared more than once",
                  p.processes[j].loc);
        break;
      }
    }
  }

  // Duplicate action labels within one process.
  for (const protocol::Process& proc : p.processes) {
    for (std::size_t j = 0; j < proc.actions.size(); ++j) {
      for (std::size_t k = 0; k < j; ++k) {
        if (proc.actions[j].label == proc.actions[k].label) {
          diags.add("duplicate-label", Severity::Warning,
                    "process " + proc.name + ": action label " +
                        proc.actions[j].label +
                        " shadows an earlier action of the same name",
                    proc.actions[j].loc);
          break;
        }
      }
    }
  }

  // Invariant over variables no process reads: the legitimate states then
  // constrain something the protocol cannot observe, let alone correct.
  if (p.invariant && p.invariant->isBool() && supportInRange(*p.invariant, p)) {
    std::set<VarId> sup;
    protocol::collectSupport(*p.invariant, sup);
    for (VarId v : sup) {
      bool readable = false;
      for (const protocol::Process& proc : p.processes) {
        if (proc.canRead(v)) {
          readable = true;
          break;
        }
      }
      if (!readable) {
        diags.add("invariant-unreadable", Severity::Warning,
                  "invariant references variable " + p.vars[v].name +
                      ", which no process reads",
                  p.invariantLoc);
      }
    }
  }

  // Out-of-domain constants in comparisons, and assignment right-hand
  // sides that can leave the target's domain (the symbolic compiler
  // rejects the latter hard, so it is an error here).
  const std::vector<int> domains = p.domains();
  if (p.invariant && p.invariant->isBool() && supportInRange(*p.invariant, p)) {
    checkComparisons(*p.invariant, p, p.invariantLoc, "invariant", diags);
  }
  for (std::size_t j = 0; j < p.processes.size(); ++j) {
    const protocol::Process& proc = p.processes[j];
    if (!p.localPredicates.empty() && p.localPredicates[j] &&
        p.localPredicates[j]->isBool() &&
        supportInRange(*p.localPredicates[j], p)) {
      checkComparisons(*p.localPredicates[j], p, proc.loc,
                       "process " + proc.name + " local predicate", diags);
    }
    for (const protocol::Action& a : proc.actions) {
      const std::string who = "process " + proc.name + "/" + a.label;
      if (a.guard && a.guard->isBool() && supportInRange(*a.guard, p)) {
        checkComparisons(*a.guard, p, a.loc, who + " guard", diags);
      }
      for (const protocol::Assignment& asg : a.assigns) {
        if (asg.var >= p.vars.size() || !asg.value || asg.value->isBool() ||
            !supportInRange(*asg.value, p)) {
          continue;  // already a validation error
        }
        const protocol::Variable& target = p.vars[asg.var];
        for (const long v : protocol::possibleValues(*asg.value, domains)) {
          if (v < 0 || v >= target.domain) {
            diags.add("assign-out-of-domain", Severity::Error,
                      who + ": assignment to " + target.name +
                          " can produce " + std::to_string(v) +
                          ", outside its domain 0.." +
                          std::to_string(target.domain - 1) +
                          "; apply 'mod " + std::to_string(target.domain) +
                          "' to the right-hand side",
                      a.loc);
            break;
          }
        }
      }
    }
  }

  // Dead variables: never readable, never writable, and absent from the
  // invariant — they only inflate the state space.
  std::set<VarId> used;
  if (p.invariant && p.invariant->isBool()) {
    protocol::collectSupport(*p.invariant, used);
  }
  for (const protocol::ExprPtr& lp : p.localPredicates) {
    if (lp && lp->isBool()) protocol::collectSupport(*lp, used);
  }
  for (VarId v = 0; v < p.vars.size(); ++v) {
    bool touched = used.contains(v);
    for (std::size_t j = 0; !touched && j < p.processes.size(); ++j) {
      touched = p.processes[j].canRead(v) || p.processes[j].canWrite(v);
    }
    if (!touched) {
      diags.add("dead-variable", Severity::Warning,
                "variable " + p.vars[v].name +
                    " is never read or written and does not appear in the "
                    "invariant",
                p.vars[v].loc);
    }
  }
}

// ---------------------------------------------------------------------------
// Symbolic tier.
// ---------------------------------------------------------------------------

void lintSymbolic(const Protocol& p, Diagnostics& diags) {
  const symbolic::Encoding enc(p);
  const bdd::Bdd valid = enc.validCur();

  // Invariant: unsatisfiable or trivially true.
  const bdd::Bdd inv =
      symbolic::compileBool(*p.invariant, enc, symbolic::StateCopy::Current) &
      valid;
  if (inv.isFalse()) {
    diags.add("invariant-empty", Severity::Error,
              "invariant is unsatisfiable: there are no legitimate states",
              p.invariantLoc);
  } else if (inv == valid) {
    diags.add("invariant-trivial", Severity::Warning,
              "invariant holds in every state: nothing to converge to",
              p.invariantLoc);
  }

  for (std::size_t j = 0; j < p.processes.size(); ++j) {
    const protocol::Process& proc = p.processes[j];
    std::vector<bdd::Bdd> rels(proc.actions.size());
    std::vector<bdd::Bdd> enabled(proc.actions.size());
    for (std::size_t k = 0; k < proc.actions.size(); ++k) {
      const protocol::Action& a = proc.actions[k];
      const std::string who = "process " + proc.name + "/" + a.label;
      const bdd::Bdd guard =
          symbolic::compileBool(*a.guard, enc, symbolic::StateCopy::Current) &
          valid;
      if (guard.isFalse()) {
        diags.add("guard-unsat", Severity::Warning,
                  who + ": guard is unsatisfiable — the action can never "
                        "fire",
                  a.loc);
        continue;  // rels[k] stays false; overlap checks skip it
      }
      if (guard == valid) {
        diags.add("guard-tautology", Severity::Note,
                  who + ": guard holds in every state — the action is "
                        "always enabled",
                  a.loc);
      }
      for (const protocol::Assignment& asg : a.assigns) {
        const protocol::E changes =
            protocol::ref(asg.var) != protocol::E(asg.value);
        if ((symbolic::compileBool(*changes.ptr(), enc,
                                   symbolic::StateCopy::Current) &
             guard)
                .isFalse()) {
          diags.add("dead-assignment", Severity::Warning,
                    who + ": assignment to " + p.vars[asg.var].name +
                        " can never change its value where the guard holds",
                    a.loc);
        }
      }
      const bdd::Bdd rel = symbolic::actionRelation(enc, j, a);
      enabled[k] = guard;
      rels[k] = rel;
      if ((rel & !enc.diagonal()).isFalse()) {
        diags.add("action-identity", Severity::Warning,
                  who + ": the action never changes the state where its "
                        "guard holds",
                  a.loc);
      }
    }

    // Overlapping guards with different effects: legitimate in the
    // nondeterministic guarded-command model, but worth a note because it
    // is a common source of surprising schedules.
    for (std::size_t k = 0; k < proc.actions.size(); ++k) {
      if (!rels[k].valid()) continue;
      for (std::size_t m = 0; m < k; ++m) {
        if (!rels[m].valid()) continue;
        const bdd::Bdd overlap = enabled[k] & enabled[m];
        if (overlap.isFalse()) continue;
        if (!((rels[k] ^ rels[m]) & overlap).isFalse()) {
          diags.add("action-overlap", Severity::Note,
                    "process " + proc.name + ": actions " +
                        proc.actions[m].label + " and " +
                        proc.actions[k].label +
                        " are both enabled on some states with different "
                        "effects (nondeterministic choice)",
                    proc.actions[k].loc);
        }
      }
    }
  }
}

}  // namespace

void lintProtocol(const Protocol& proto,
                  const std::vector<ValidationIssue>& issues,
                  Diagnostics& diags) {
  for (const ValidationIssue& issue : issues) diags.addIssue(issue);
  lintAst(proto, diags);
  // The symbolic tier needs a compilable protocol: skip it whenever the
  // AST tier found an error (e.g. a non-boolean guard or an out-of-domain
  // assignment would throw inside the compiler).
  if (diags.count(Severity::Error) == 0) {
    try {
      lintSymbolic(proto, diags);
    } catch (const std::exception& e) {
      diags.add("symbolic-failure", Severity::Error,
                std::string("symbolic analysis failed: ") + e.what(), {});
    }
  }
  diags.sortByLocation();
}

bool lintSource(std::string_view source, Diagnostics& diags) {
  std::vector<ValidationIssue> issues;
  try {
    const Protocol proto = lang::parseProtocolLenient(source, issues);
    lintProtocol(proto, issues, diags);
    return true;
  } catch (const lang::ParseError& e) {
    // what() is "line L:C: message"; the rendered diagnostic already
    // carries the position, so keep only the message part.
    std::string message = e.what();
    const std::string prefix = "line " + std::to_string(e.line) + ":" +
                               std::to_string(e.column) + ": ";
    if (message.rfind(prefix, 0) == 0) message = message.substr(prefix.size());
    diags.add("parse-error", Severity::Error, std::move(message),
              SourceLoc{e.line, e.column});
    return false;
  } catch (const std::exception& e) {
    // Lint is the lenient path — callers (`stsyn lint`, the serve
    // daemon's validator) rely on every failure surfacing as a diagnostic,
    // so even an unexpected exception becomes one instead of escaping.
    diags.add("internal-error", Severity::Error,
              std::string("analysis failed: ") + e.what(), {});
    return false;
  }
}

}  // namespace stsyn::analysis
