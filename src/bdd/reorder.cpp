// Dynamic variable reordering: Rudell-style sifting with atomic groups.
//
// The central constraint is that external Bdd handles must survive a
// reorder. Swaps are therefore IN PLACE: exchanging adjacent levels l and
// l+1 rewrites each level-l node that depends on the level-(l+1) variable
// so that the SAME node index afterwards carries the variable from l+1 —
// the function denoted by every index is invariant, only the internal
// shape changes. Nodes whose last parent disappears in the rewrite are
// freed immediately (sifting steers by exact live-node counts), which is
// why the pass keeps a full reference count (external refs + parent
// pointers) for its duration.
//
// Grouping: the protocol encoding interleaves current/next bit pairs and
// renames between them with order-preserving permutations. Sifting moves
// whole groups (registered via setReorderGroups) as atomic blocks, so a
// pair's bits stay adjacent in their original relative order and the
// rename-monotonicity invariant of symbolic/ holds under any reorder.
//
// Cache discipline: freed indices can be recycled with a different
// function, so the operation cache is invalidated after every pass.
#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "bdd/bdd.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace stsyn::bdd {

namespace {
/// Abort a sift direction once the pool grows past best * (1 + 1/kGrowthDen).
constexpr std::size_t kGrowthDen = 5;
}  // namespace

// ---------------------------------------------------------------------------
// Group registration.
// ---------------------------------------------------------------------------

void Manager::setReorderGroups(std::vector<std::vector<Var>> groups) {
  assertOwned();
  std::vector<bool> seen(varCount_, false);
  for (const std::vector<Var>& g : groups) {
    if (g.empty()) {
      throw std::invalid_argument("setReorderGroups: empty group");
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g[i] >= varCount_ || seen[g[i]]) {
        throw std::invalid_argument(
            "setReorderGroups: variable out of range or in two groups");
      }
      seen[g[i]] = true;
      if (i > 0 && indexToLevel_[g[i]] != indexToLevel_[g[i - 1]] + 1) {
        throw std::invalid_argument(
            "setReorderGroups: group members must sit on consecutive levels");
      }
    }
  }
  // Two-member groups are the (current, next) pairs of the image kernels.
  pairCur_.assign(varCount_, kTerminalVar);
  pairNext_.assign(varCount_, kTerminalVar);
  for (const std::vector<Var>& g : groups) {
    if (g.size() != 2) continue;
    pairCur_[g[0]] = pairCur_[g[1]] = g[0];
    pairNext_[g[0]] = pairNext_[g[1]] = g[1];
  }
  // Unmentioned variables sift alone.
  for (Var v = 0; v < varCount_; ++v) {
    if (!seen[v]) groups.push_back({v});
  }
  reorderGroups_ = std::move(groups);
}

void Manager::setLevelOrder(std::span<const Var> levelToIndex) {
  assertOwned();
  if (levelToIndex.size() != varCount_) {
    throw std::invalid_argument("setLevelOrder: wrong arity");
  }
  std::vector<bool> seen(varCount_, false);
  for (const Var v : levelToIndex) {
    if (v >= varCount_ || seen[v]) {
      throw std::invalid_argument("setLevelOrder: not a permutation");
    }
    seen[v] = true;
  }
  std::vector<Var> position(varCount_);
  for (Var l = 0; l < varCount_; ++l) position[levelToIndex[l]] = l;
  for (const std::vector<Var>& g : reorderGroups_) {
    const auto [lo, hi] = std::minmax_element(
        g.begin(), g.end(),
        [&](Var a, Var b) { return position[a] < position[b]; });
    if (position[*hi] - position[*lo] + 1 != g.size()) {
      throw std::invalid_argument(
          "setLevelOrder: order separates the members of a registered group");
    }
  }
  buildReorderRefs();
  // Selection by bubbling: fix levels top-down; the variable destined for
  // `target` can only sit at or below it once the levels above are fixed.
  for (Var target = 0; target < varCount_; ++target) {
    for (Var l = indexToLevel_[levelToIndex[target]]; l > target; --l) {
      swapAdjacentLevels(l - 1);
    }
  }
  clearCache();
  reorderRefs_.clear();
  reorderRefs_.shrink_to_fit();
  stats_.liveNodes = liveNodes_;
}

// ---------------------------------------------------------------------------
// Reference counts for the duration of a pass.
// ---------------------------------------------------------------------------

void Manager::buildReorderRefs() {
  // Start from a fully-collected pool: every remaining node is reachable
  // from an externally referenced root, so its total refcount is > 0.
  collectGarbage();
  // Counts are per NODE: child slots hold tagged edges, liveness ignores
  // the complement bit.
  reorderRefs_.assign(nodes_.size(), 0);
  for (NodeIndex n = 1; n < nodes_.size(); ++n) {
    if (nodes_[n].var == kTerminalVar) continue;  // free-list tombstone
    ++reorderRefs_[nodeOf(nodes_[n].low)];
    ++reorderRefs_[nodeOf(nodes_[n].high)];
  }
  for (NodeIndex n = 0; n < extRefs_.size(); ++n) {
    reorderRefs_[n] += extRefs_[n];
  }
}

// Unique-table insertion used inside a swap. Like mk() — including the
// complement canonicalization, so it returns a tagged EDGE — but
// maintains the pass's reference counts for newly allocated nodes and
// never touches the operation cache.
NodeIndex Manager::reorderMk(Var var, NodeIndex low, NodeIndex high) {
  if (low == high) return low;
  const bool complementOut = isComplement(high);
  if (complementOut) {
    low = negateEdge(low);
    high = negateEdge(high);
  }
  Subtable& st = subtables_[var];
  const std::uint64_t h = hashTriple(var, low, high);
  for (NodeIndex n = st.buckets[h & (st.buckets.size() - 1)]; n != kNil;
       n = nodes_[n].next) {
    const Node& node = nodes_[n];
    if (node.low == low && node.high == high)
      return makeEdge(n, complementOut);
  }
  if (st.count + 1 > st.buckets.size()) rehashSubtable(st);
  const NodeIndex n = allocNode(var, low, high);
  if (n >= reorderRefs_.size()) reorderRefs_.resize(n + 1, 0);
  reorderRefs_[n] = 0;
  ++reorderRefs_[nodeOf(low)];
  ++reorderRefs_[nodeOf(high)];
  const std::size_t b = h & (st.buckets.size() - 1);
  nodes_[n].next = st.buckets[b];
  st.buckets[b] = n;
  ++st.count;
  return makeEdge(n, complementOut);
}

void Manager::reorderUnlink(NodeIndex n) {
  const Node& node = nodes_[n];
  Subtable& st = subtables_[node.var];
  const std::uint64_t h = hashTriple(node.var, node.low, node.high);
  NodeIndex* link = &st.buckets[h & (st.buckets.size() - 1)];
  while (*link != n) {
    assert(*link != kNil && "node missing from its subtable");
    link = &nodes_[*link].next;
  }
  *link = nodes_[n].next;
  --st.count;
}

void Manager::reorderDeref(NodeIndex root) {
  // `root` is an edge; the walk operates on node indices.
  static thread_local std::vector<NodeIndex> stack;
  stack.push_back(nodeOf(root));
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (n == kTerminalNode) continue;
    assert(reorderRefs_[n] > 0);
    if (--reorderRefs_[n] > 0) continue;
    // Last reference gone (external refs are part of the count, so the
    // node is truly unreachable): free it now so sifting sees true sizes.
    reorderUnlink(n);
    stack.push_back(nodeOf(nodes_[n].low));
    stack.push_back(nodeOf(nodes_[n].high));
    nodes_[n].var = kTerminalVar;  // tombstone
    nodes_[n].next = freeList_;
    freeList_ = n;
    --liveNodes_;
  }
}

// ---------------------------------------------------------------------------
// The in-place adjacent-level swap.
// ---------------------------------------------------------------------------

void Manager::swapAdjacentLevels(Var level) {
  assert(level + 1 < varCount_);
  const Var vi = levelToIndex_[level];      // moves down to level+1
  const Var vj = levelToIndex_[level + 1];  // moves up to level
  Subtable& sti = subtables_[vi];

  // Phase 1: pull every vi-node that depends on vj out of vi's subtable.
  // Nodes NOT depending on vj keep their var, children, and key — they
  // simply end up one level lower without being touched.
  static thread_local std::vector<NodeIndex> moved;
  moved.clear();
  for (NodeIndex& head : sti.buckets) {
    NodeIndex* link = &head;
    while (*link != kNil) {
      const NodeIndex n = *link;
      if (nodes_[nodeOf(nodes_[n].low)].var == vj ||
          nodes_[nodeOf(nodes_[n].high)].var == vj) {
        *link = nodes_[n].next;
        moved.push_back(n);
      } else {
        link = &nodes_[n].next;
      }
    }
  }
  sti.count -= moved.size();

  // Phase 2: rewrite each pulled node n = ITE(vi; f1, f0) as
  // ITE(vj; B, A) with A = ITE(vi; f10, f00), B = ITE(vi; f11, f01) —
  // same function, same index, vj on top. Cofactors of the (possibly
  // complemented) low edge read through the sign; the high edge and the
  // then-children of vj-nodes are regular by the canonical invariant, so
  // f11 is always regular, hence B is always a regular edge and the
  // rewritten node re-establishes the regular-then invariant for free —
  // no parent rewriting needed.
  for (const NodeIndex n : moved) {
    const NodeIndex f0 = nodes_[n].low;   // edge, may be complemented
    const NodeIndex f1 = nodes_[n].high;  // edge, regular by invariant
    const bool lowDep = nodes_[nodeOf(f0)].var == vj;
    const bool highDep = nodes_[nodeOf(f1)].var == vj;
    const NodeIndex f00 =
        lowDep ? throughEdge(f0, nodes_[nodeOf(f0)].low) : f0;
    const NodeIndex f01 =
        lowDep ? throughEdge(f0, nodes_[nodeOf(f0)].high) : f0;
    const NodeIndex f10 = highDep ? nodes_[nodeOf(f1)].low : f1;
    const NodeIndex f11 = highDep ? nodes_[nodeOf(f1)].high : f1;

    const NodeIndex a = reorderMk(vi, f00, f10);
    ++reorderRefs_[nodeOf(a)];
    const NodeIndex b = reorderMk(vi, f01, f11);
    ++reorderRefs_[nodeOf(b)];
    assert(a != b && "swapped node would be redundant");
    assert(!isComplement(b) &&
           "then-edge of a rewritten node must be regular");

    nodes_[n].var = vj;
    nodes_[n].low = a;
    nodes_[n].high = b;
    Subtable& stj = subtables_[vj];
    if (stj.count + 1 > stj.buckets.size()) rehashSubtable(stj);
    const std::size_t bkt =
        hashTriple(vj, a, b) & (stj.buckets.size() - 1);
    nodes_[n].next = stj.buckets[bkt];
    stj.buckets[bkt] = n;
    ++stj.count;

    // Old children lose this parent; a vj-child whose parents are all
    // rewritten dies here (and may cascade into shared deeper nodes).
    reorderDeref(f0);
    reorderDeref(f1);
  }

  levelToIndex_[level] = vj;
  levelToIndex_[level + 1] = vi;
  indexToLevel_[vi] = level + 1;
  indexToLevel_[vj] = level;
}

// ---------------------------------------------------------------------------
// Group movement and sifting.
// ---------------------------------------------------------------------------

Var Manager::groupStartLevel(std::size_t pos) const {
  Var level = 0;
  for (std::size_t p = 0; p < pos; ++p) {
    level += static_cast<Var>(reorderGroups_[groupOrder_[p]].size());
  }
  return level;
}

std::size_t Manager::groupNodeCount(std::size_t gid) const {
  std::size_t count = 0;
  for (const Var v : reorderGroups_[gid]) count += subtables_[v].count;
  return count;
}

void Manager::swapAdjacentGroups(std::size_t pos) {
  const std::size_t g1 = groupOrder_[pos];
  const std::size_t g2 = groupOrder_[pos + 1];
  const Var a = static_cast<Var>(reorderGroups_[g1].size());
  const Var b = static_cast<Var>(reorderGroups_[g2].size());
  const Var s = groupStartLevel(pos);
  // Bubble each variable of the lower group above the whole upper group,
  // preserving both groups' internal orders.
  for (Var i = 0; i < b; ++i) {
    for (Var l = s + a + i; l > s + i; --l) swapAdjacentLevels(l - 1);
  }
  std::swap(groupOrder_[pos], groupOrder_[pos + 1]);
}

void Manager::siftGroup(std::size_t startPos) {
  const std::size_t count = groupOrder_.size();
  std::size_t pos = startPos;
  std::size_t bestSize = liveNodes_;
  std::size_t bestPos = pos;

  const auto record = [&]() {
    if (liveNodes_ < bestSize) {
      bestSize = liveNodes_;
      bestPos = pos;
    }
  };
  const auto tooBig = [&]() {
    return liveNodes_ > bestSize + bestSize / kGrowthDen;
  };
  const auto sweepDown = [&]() {
    while (pos + 1 < count) {
      swapAdjacentGroups(pos);
      ++pos;
      record();
      if (tooBig()) break;
    }
  };
  const auto sweepUp = [&]() {
    while (pos > 0) {
      swapAdjacentGroups(pos - 1);
      --pos;
      record();
      if (tooBig()) break;
    }
  };

  // Explore the nearer end first, then sweep across to the other end.
  if (count - 1 - pos <= pos) {
    sweepDown();
    sweepUp();
  } else {
    sweepUp();
    sweepDown();
  }
  // Settle at the best position seen.
  while (pos < bestPos) {
    swapAdjacentGroups(pos);
    ++pos;
  }
  while (pos > bestPos) {
    swapAdjacentGroups(pos - 1);
    --pos;
  }
}

void Manager::reorderNow() {
  assertOwned();
  if (varCount_ < 2 || reorderGroups_.size() < 2) return;
  const util::Stopwatch watch;
  obs::Span span("bdd_reorder", "bdd");

  buildReorderRefs();
  const std::size_t before = liveNodes_;

  // Establish the current group order (groups occupy contiguous level
  // ranges by construction: initially by registration, afterwards because
  // sifting only ever moves whole groups).
  groupOrder_.resize(reorderGroups_.size());
  std::iota(groupOrder_.begin(), groupOrder_.end(), std::size_t{0});
  std::sort(groupOrder_.begin(), groupOrder_.end(),
            [&](std::size_t a, std::size_t b) {
              return indexToLevel_[reorderGroups_[a].front()] <
                     indexToLevel_[reorderGroups_[b].front()];
            });

  // Sift the largest groups first (Rudell's heuristic): they have the
  // most nodes to save.
  std::vector<std::size_t> byCount(reorderGroups_.size());
  std::iota(byCount.begin(), byCount.end(), std::size_t{0});
  std::sort(byCount.begin(), byCount.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t ca = groupNodeCount(a);
    const std::size_t cb = groupNodeCount(b);
    return ca != cb ? ca > cb : a < b;
  });

  for (const std::size_t gid : byCount) {
    const auto it = std::find(groupOrder_.begin(), groupOrder_.end(), gid);
    assert(it != groupOrder_.end());
    siftGroup(static_cast<std::size_t>(it - groupOrder_.begin()));
  }

  // Freed indices may be recycled with different functions; every cached
  // operand/result would be suspect.
  clearCache();
  reorderRefs_.clear();
  reorderRefs_.shrink_to_fit();

  stats_.liveNodes = liveNodes_;
  stats_.reorderRuns += 1;
  stats_.reorderSeconds += watch.seconds();
  stats_.reorderNodesBefore += before;
  stats_.reorderNodesAfter += liveNodes_;
  span.arg("live_before", before);
  span.arg("live_after", liveNodes_);
}

}  // namespace stsyn::bdd
