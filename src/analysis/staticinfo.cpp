#include "analysis/staticinfo.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

namespace stsyn::analysis {

using protocol::Expr;
using protocol::Protocol;
using protocol::VarId;

namespace {

/// Renaming-invariant attributes of one variable, as seen from any
/// process: two variables may swap roles in a renaming only when their
/// attributes agree.
struct VarAttr {
  int domain = 0;
  std::size_t readers = 0;
  std::size_t writers = 0;
  bool inInvariant = false;

  auto operator<=>(const VarAttr&) const = default;

  [[nodiscard]] std::string render() const {
    return std::to_string(domain) + "r" + std::to_string(readers) + "w" +
           std::to_string(writers) + (inInvariant ? "i" : "");
  }
};

/// Renders an expression with variable references replaced by role names
/// ("v0", "v1", ...) per the given var -> role map. Unmapped references
/// (unreadable or out-of-range — only possible on invalid protocols)
/// render as "x<id>", keeping the result deterministic without crashing.
void renderExpr(const Expr& e, const std::vector<std::size_t>& roleOf,
                std::string& out) {
  switch (e.kind) {
    case Expr::Kind::Const:
      out += std::to_string(e.value);
      return;
    case Expr::Kind::BoolConst:
      out += e.value != 0 ? "true" : "false";
      return;
    case Expr::Kind::Ref:
      if (e.var < roleOf.size() && roleOf[e.var] != SIZE_MAX) {
        out += "v" + std::to_string(roleOf[e.var]);
      } else {
        out += "x" + std::to_string(e.var);
      }
      return;
    default: {
      static constexpr const char* kNames[] = {
          "const", "ref", "add", "sub", "mul", "mod", "ite", "eq", "ne",
          "lt",    "le",  "gt",  "ge",  "and", "or",  "not", "imp", "iff",
          "bconst"};
      out += kNames[static_cast<int>(e.kind)];
      out += '(';
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ',';
        renderExpr(*e.args[i], roleOf, out);
      }
      out += ')';
    }
  }
}

/// Renders process j's full local shape under one read ordering: the role
/// attributes, the local predicate, and the canonically sorted actions.
std::string renderShape(const Protocol& p, std::size_t j,
                        const std::vector<VarId>& roleVars,
                        const std::vector<VarAttr>& attrs,
                        std::size_t writeCount) {
  std::vector<std::size_t> roleOf(p.vars.size(), SIZE_MAX);
  for (std::size_t r = 0; r < roleVars.size(); ++r) roleOf[roleVars[r]] = r;

  std::string out = "W" + std::to_string(writeCount) + "[";
  for (std::size_t r = 0; r < roleVars.size(); ++r) {
    if (r > 0) out += ';';
    out += attrs[r].render();
  }
  out += ']';

  if (j < p.localPredicates.size() && p.localPredicates[j]) {
    out += "L:";
    renderExpr(*p.localPredicates[j], roleOf, out);
  }

  const protocol::Process& pr = p.processes[j];
  std::vector<std::string> actions;
  actions.reserve(pr.actions.size());
  for (const protocol::Action& a : pr.actions) {
    std::string act = "g:";
    if (a.guard) renderExpr(*a.guard, roleOf, act);
    // Parallel assignments are order-insensitive; sort by target role.
    std::vector<std::pair<std::size_t, std::string>> assigns;
    for (const protocol::Assignment& asg : a.assigns) {
      const std::size_t role =
          asg.var < roleOf.size() ? roleOf[asg.var] : SIZE_MAX;
      std::string rhs;
      if (asg.value) renderExpr(*asg.value, roleOf, rhs);
      assigns.emplace_back(role, "v" + std::to_string(role) + ":=" + rhs);
    }
    std::sort(assigns.begin(), assigns.end());
    for (const auto& [role, text] : assigns) act += ";" + text;
    actions.push_back(std::move(act));
  }
  // An action multiset has no canonical source order; sort the renderings.
  std::sort(actions.begin(), actions.end());
  for (const std::string& a : actions) out += "|" + a;
  return out;
}

/// Enumerating every read ordering is exponential; beyond this many
/// candidate orderings the shape falls back to the declared VarId order
/// (still deterministic, merely less canonical across renamings).
constexpr std::size_t kMaxShapePermutations = 720;

/// Canonical local shape of process j: the lexicographically smallest
/// rendering over all orderings of its readable variables that (a) list
/// written variables before read-only ones and (b) only permute variables
/// with equal attributes (a renaming cannot swap variables whose domains
/// or footprints differ).
std::string canonicalShape(const Protocol& p, std::size_t j,
                           const std::vector<VarAttr>& attrOf) {
  const protocol::Process& pr = p.processes[j];

  struct Role {
    VarId var;
    bool written;
    VarAttr attr;
  };
  std::vector<Role> roles;
  for (const VarId v : pr.reads) {
    if (v >= p.vars.size()) continue;
    roles.push_back(Role{v, pr.canWrite(v), attrOf[v]});
  }
  // Written-first, then by attribute, then by VarId: the bucket order every
  // permutation respects.
  std::sort(roles.begin(), roles.end(), [](const Role& a, const Role& b) {
    return std::tie(b.written, a.attr, a.var) <
           std::tie(a.written, b.attr, b.var);
  });
  const std::size_t writeCount = static_cast<std::size_t>(
      std::count_if(roles.begin(), roles.end(),
                    [](const Role& r) { return r.written; }));

  // Buckets of interchangeable roles: same written flag and attributes.
  std::vector<std::pair<std::size_t, std::size_t>> buckets;  // [begin, end)
  std::size_t permCount = 1;
  for (std::size_t b = 0; b < roles.size();) {
    std::size_t e = b + 1;
    while (e < roles.size() && roles[e].written == roles[b].written &&
           roles[e].attr == roles[b].attr) {
      ++e;
    }
    buckets.emplace_back(b, e);
    for (std::size_t k = 2; k <= e - b && permCount <= kMaxShapePermutations;
         ++k) {
      permCount *= k;
    }
    b = e;
  }

  std::vector<VarId> order(roles.size());
  std::vector<VarAttr> attrs(roles.size());
  for (std::size_t r = 0; r < roles.size(); ++r) {
    order[r] = roles[r].var;
    attrs[r] = roles[r].attr;
  }
  std::string best = renderShape(p, j, order, attrs, writeCount);
  if (permCount <= 1 || permCount > kMaxShapePermutations) return best;

  // Walk the cartesian product of per-bucket permutations (odometer over
  // std::next_permutation within each bucket).
  std::vector<VarId> cur = order;
  for (;;) {
    std::size_t i = 0;
    for (; i < buckets.size(); ++i) {
      const auto [b, e] = buckets[i];
      if (std::next_permutation(cur.begin() + static_cast<long>(b),
                                cur.begin() + static_cast<long>(e))) {
        break;
      }
      // This bucket wrapped to its first permutation; carry to the next.
    }
    if (i == buckets.size()) break;  // every bucket wrapped: done
    std::string shape = renderShape(p, j, cur, attrs, writeCount);
    if (shape < best) best = std::move(shape);
  }
  return best;
}

}  // namespace

ProcessOrbits computeOrbits(const Protocol& p) {
  std::set<VarId> invSupport;
  if (p.invariant) protocol::collectSupport(*p.invariant, invSupport);

  const std::size_t nv = p.vars.size();
  std::vector<VarAttr> attrOf(nv);
  for (VarId v = 0; v < nv; ++v) {
    attrOf[v].domain = p.vars[v].domain;
    attrOf[v].inInvariant = invSupport.contains(v);
  }
  // Lenient-parse protocols can carry out-of-range ids; skip them so the
  // pass never indexes past the variable table.
  for (const protocol::Process& pr : p.processes) {
    for (const VarId v : pr.reads) {
      if (v < nv) ++attrOf[v].readers;
    }
    for (const VarId v : pr.writes) {
      if (v < nv) ++attrOf[v].writers;
    }
  }

  ProcessOrbits out;
  out.orbitOf.resize(p.processes.size());
  out.shapes.resize(p.processes.size());
  std::map<std::string, std::size_t> orbitOfShape;
  for (std::size_t j = 0; j < p.processes.size(); ++j) {
    out.shapes[j] = canonicalShape(p, j, attrOf);
    const auto [it, inserted] =
        orbitOfShape.try_emplace(out.shapes[j], out.orbitCount);
    if (inserted) ++out.orbitCount;
    out.orbitOf[j] = it->second;
  }
  return out;
}

std::vector<std::size_t> scheduleOrbitSignature(
    const ProcessOrbits& orbits, const std::vector<std::size_t>& schedule) {
  std::vector<std::size_t> sig;
  sig.reserve(schedule.size());
  for (const std::size_t j : schedule) {
    sig.push_back(j < orbits.orbitOf.size() ? orbits.orbitOf[j] : SIZE_MAX);
  }
  return sig;
}

std::vector<std::size_t> scheduleRepresentatives(
    const ProcessOrbits& orbits,
    const std::vector<std::vector<std::size_t>>& schedules) {
  std::vector<std::size_t> rep(schedules.size());
  std::map<std::vector<std::size_t>, std::size_t> firstOf;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const auto [it, inserted] = firstOf.try_emplace(
        scheduleOrbitSignature(orbits, schedules[i]), i);
    rep[i] = it->second;
  }
  return rep;
}

}  // namespace stsyn::analysis
