// Non-mutating BDD analyses: node counting, model counting, evaluation,
// and model enumeration.
//
// These traversals allocate no new nodes, so they are safe to run at any
// time and do not interact with garbage collection. They operate on
// tagged edges: shared f/¬f pairs are counted once (nodeCount walks node
// indices), while the truth-dependent analyses (satCount, eval,
// forEachSat) track the complement parity accumulated along each path.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.hpp"

namespace stsyn::bdd {

// ---------------------------------------------------------------------------
// Node count.
// ---------------------------------------------------------------------------

std::size_t Manager::nodeCountOf(NodeIndex f) const {
  // Counts NODES, not edges: f and ¬f share every node, so the count is
  // identical for a function and its negation (the paper's space metric
  // counts allocated pool entries).
  if (nodeOf(f) == kTerminalNode) return 0;
  std::unordered_set<NodeIndex> seen;
  std::vector<NodeIndex> stack{nodeOf(f)};
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (n == kTerminalNode || !seen.insert(n).second) continue;
    stack.push_back(nodeOf(nodes_[n].low));
    stack.push_back(nodeOf(nodes_[n].high));
  }
  return seen.size();
}

std::size_t Bdd::nodeCount() const {
  if (!valid()) return 0;
  return mgr_->nodeCountOf(index_);
}

// ---------------------------------------------------------------------------
// Model counting over an explicit variable set.
// ---------------------------------------------------------------------------

double Manager::satCountOf(NodeIndex f, std::span<const Var> levels) const {
  // The calling convention is strictly ascending variable INDICES; the
  // recursion below must follow the diagram's CURRENT LEVEL order, so the
  // variables are re-ranked by level first (a no-op for the identity
  // order). The count itself is order-independent.
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (levels[i] <= levels[i - 1]) {
      throw std::invalid_argument("satCount levels must be ascending");
    }
  }
  std::vector<std::size_t> byLevel(levels.size());
  std::iota(byLevel.begin(), byLevel.end(), std::size_t{0});
  std::sort(byLevel.begin(), byLevel.end(), [&](std::size_t a, std::size_t b) {
    return indexToLevel_[levels[a]] < indexToLevel_[levels[b]];
  });
  // Map variable index -> level rank for O(1) lookup.
  std::unordered_map<Var, std::size_t> pos;
  for (std::size_t r = 0; r < byLevel.size(); ++r) {
    pos.emplace(levels[byLevel[r]], r);
  }

  // countFrom(e, i): number of assignments to the i-th-by-level and later
  // variables satisfying edge e, where e's level rank >= i. The memo
  // stores the count of the REGULAR edge per (node, rank); a complemented
  // edge is the complement correction 2^(remaining) - count, so f and ¬f
  // share every memo entry.
  std::unordered_map<std::uint64_t, double> memo;
  auto rec = [&](auto&& self, NodeIndex e, std::size_t i) -> double {
    const double all = std::ldexp(1.0, static_cast<int>(levels.size() - i));
    if (e == kFalse) return 0.0;
    if (e == kTrue) return all;
    const NodeIndex n = nodeOf(e);
    const Var v = nodes_[n].var;
    const auto it = pos.find(v);
    if (it == pos.end() || it->second < i) {
      throw std::invalid_argument("satCount: support not covered by levels");
    }
    const std::size_t vi = it->second;
    const std::uint64_t key = (std::uint64_t{n} << 16) | i;
    double result;
    if (const auto m = memo.find(key); m != memo.end()) {
      result = m->second;
    } else {
      const double below = self(self, nodes_[n].low, vi + 1) +
                           self(self, nodes_[n].high, vi + 1);
      result = std::ldexp(below, static_cast<int>(vi - i));
      memo.emplace(key, result);
    }
    return isComplement(e) ? all - result : result;
  };
  return rec(rec, f, 0);
}

double Bdd::satCount(std::span<const Var> levels) const {
  if (!valid()) throw std::invalid_argument("satCount of a null BDD");
  return mgr_->satCountOf(index_, levels);
}

// ---------------------------------------------------------------------------
// Evaluation and model enumeration.
// ---------------------------------------------------------------------------

bool Manager::evalOf(NodeIndex f, std::span<const char> assign) const {
  // Walk EFFECTIVE edges: throughEdge pushes the accumulated complement
  // parity onto the chosen child, so the loop ends on exactly kTrue or
  // kFalse.
  while (nodeOf(f) != kTerminalNode) {
    const Node& n = nodes_[nodeOf(f)];
    assert(n.var < assign.size());
    f = throughEdge(f, assign[n.var] ? n.high : n.low);
  }
  return f == kTrue;
}

bool Bdd::eval(std::span<const char> assignment) const {
  if (!valid()) throw std::invalid_argument("eval of a null BDD");
  if (assignment.size() < mgr_->varCount()) {
    throw std::invalid_argument("eval assignment too short");
  }
  return mgr_->evalOf(index_, assignment);
}

void Bdd::forEachSat(
    std::span<const Var> levels,
    const std::function<void(std::span<const char>)>& fn) const {
  if (!valid()) throw std::invalid_argument("forEachSat of a null BDD");
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (levels[i] <= levels[i - 1]) {
      throw std::invalid_argument("forEachSat levels must be ascending");
    }
  }
  // The recursion walks the diagram in CURRENT LEVEL order, but the
  // callback's span stays aligned with the caller's `levels` positions:
  // byLevel[r] is the position (in `levels`) of the r-th variable by
  // level. Identity permutation until the first reorder, so the
  // enumeration order is unchanged for non-reordered managers. The
  // per-rank 0-then-1 descent makes the enumeration order independent of
  // the diagram's structure, so pushing the complement parity through the
  // edges changes nothing observable.
  std::vector<std::size_t> byLevel(levels.size());
  std::iota(byLevel.begin(), byLevel.end(), std::size_t{0});
  std::sort(byLevel.begin(), byLevel.end(), [&](std::size_t a, std::size_t b) {
    return mgr_->levelOf(levels[a]) < mgr_->levelOf(levels[b]);
  });

  std::vector<char> assign(levels.size(), 0);
  // Recursive descent: level rank r, effective edge e at or below the
  // rank-r variable's level. Don't-care variables fan out to both
  // branches.
  auto rec = [&](auto&& self, NodeIndex e, std::size_t r) -> void {
    if (e == Manager::kFalse) return;
    if (r == byLevel.size()) {
      assert(e == Manager::kTrue && "support exceeds provided levels");
      fn(assign);
      return;
    }
    const std::size_t p = byLevel[r];
    const auto& node = mgr_->nodes_[Manager::nodeOf(e)];
    if (e == Manager::kTrue || node.var != levels[p]) {
      assert(e == Manager::kTrue ||
             mgr_->levelOf(node.var) > mgr_->levelOf(levels[p]));
      assign[p] = 0;
      self(self, e, r + 1);
      assign[p] = 1;
      self(self, e, r + 1);
      return;
    }
    assign[p] = 0;
    self(self, Manager::throughEdge(e, node.low), r + 1);
    assign[p] = 1;
    self(self, Manager::throughEdge(e, node.high), r + 1);
  };
  rec(rec, index_, 0);
}

}  // namespace stsyn::bdd
