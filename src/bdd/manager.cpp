// Node pool, per-variable unique subtables, operation cache, external
// references, and mark-and-sweep garbage collection.
//
// Invariants (complement-edge representation):
//   * nodes_[0] is the single TRUE terminal and never moves. Edges are
//     tagged: edge 0 (kTrue) points at it regular, edge 1 (kFalse) is its
//     complement. There is no FALSE node.
//   * Every internal node n satisfies level(low) > level(n) and
//     level(high) > level(n) (the terminal has the largest pseudo-level).
//     Levels come from the dynamic order; node `var` fields are stable
//     variable indices. low/high are EDGES; levels read through the tag.
//   * The then-edge (high) is always REGULAR: mk() factors a complement
//     sign out of both children and returns a complemented edge instead,
//     so each function/negation pair occupies exactly one node and
//     structural equality of edges is semantic equality of functions.
//   * low != high for every internal node (reduction rule).
//   * subtables_[v] holds exactly the live internal nodes of variable v.
//
// GC safety: collection only runs at public operation boundaries
// (maybeGc()), never inside a recursive kernel, so intermediate results in
// a running operation cannot be reclaimed. The same boundary triggers
// automatic variable reordering (reorder.cpp).
#include "bdd/bdd.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "obs/trace.hpp"

namespace stsyn::bdd {

namespace {
constexpr std::size_t kInitialBucketsPerVar = 1u << 6;
/// Operation-cache size at construction and its growth cap (entries of
/// 16 bytes: 64 KiB and 16 MiB). A cap of 2^22 let coloring(30) grow to
/// 2^21 entries for the same lookup count as 2^20 (EXPERIMENTS.md).
constexpr std::size_t kInitialCacheEntries = std::size_t{1} << 12;
constexpr std::size_t kMaxCacheEntries = std::size_t{1} << 20;
constexpr std::size_t kInitialGcThreshold = std::size_t{1} << 23;
constexpr std::size_t kInitialReorderThreshold = std::size_t{1} << 17;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

// ---------------------------------------------------------------------------
// Bdd handle: external reference counting.
// ---------------------------------------------------------------------------

Bdd::Bdd(Manager* mgr, NodeIndex index) : mgr_(mgr), index_(index) {
  if (mgr_) mgr_->ref(index_);
}

Bdd::Bdd(const Bdd& other) : mgr_(other.mgr_), index_(other.index_) {
  if (mgr_) mgr_->ref(index_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), index_(other.index_) {
  other.mgr_ = nullptr;
  other.index_ = 0;
}

Bdd& Bdd::operator=(const Bdd& other) {
  if (this == &other) return *this;
  if (other.mgr_) other.mgr_->ref(other.index_);
  if (mgr_) mgr_->deref(index_);
  mgr_ = other.mgr_;
  index_ = other.index_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_) mgr_->deref(index_);
  mgr_ = other.mgr_;
  index_ = other.index_;
  other.mgr_ = nullptr;
  other.index_ = 0;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_) mgr_->deref(index_);
}

bool Bdd::isFalse() const { return mgr_ != nullptr && index_ == Manager::kFalse; }
bool Bdd::isTrue() const { return mgr_ != nullptr && index_ == Manager::kTrue; }

// ---------------------------------------------------------------------------
// Manager construction.
// ---------------------------------------------------------------------------

Manager::Manager(Var varCount)
    : varCount_(varCount),
      cacheMap_(kMaxCacheEntries * sizeof(CacheEntry)),
      cache_(static_cast<CacheEntry*>(cacheMap_.data())),
      cacheSize_(kInitialCacheEntries),
      gcThreshold_(kInitialGcThreshold),
      reorderThreshold_(kInitialReorderThreshold) {
  // ASan cannot tell the reserved tail of the mapping from the active
  // prefix; poison it so a probe past cacheSize_ fails loudly.
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(cache_ + cacheSize_,
                            (kMaxCacheEntries - cacheSize_) *
                                sizeof(CacheEntry));
#endif
  std::uninitialized_fill_n(cache_, cacheSize_, CacheEntry{});
  nodes_.reserve(1u << 16);
  // The single terminal. Its var field is the out-of-band terminal marker
  // so that every internal level compares smaller; FALSE is the
  // complemented edge to this node, not a node of its own.
  nodes_.push_back(Node{kTerminalVar, kTrue, kTrue, kNil});
  extRefs_.resize(1, 0);

  subtables_.resize(varCount_);
  for (Subtable& st : subtables_) st.buckets.assign(kInitialBucketsPerVar, kNil);

  indexToLevel_.resize(varCount_);
  levelToIndex_.resize(varCount_);
  pairCur_.assign(varCount_, kTerminalVar);
  pairNext_.assign(varCount_, kTerminalVar);
  reorderGroups_.reserve(varCount_);
  for (Var v = 0; v < varCount_; ++v) {
    indexToLevel_[v] = v;
    levelToIndex_[v] = v;
    reorderGroups_.push_back({v});  // default: every variable sifts alone
  }
}

Manager::~Manager() = default;

Manager::Mapping::Mapping(std::size_t bytes)
    : data_(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)),
      bytes_(bytes) {
  if (data_ == MAP_FAILED) throw std::bad_alloc();
}

Manager::Mapping::~Mapping() {
#if defined(__SANITIZE_ADDRESS__)
  // A later mapping may reuse these addresses; leave no poison behind.
  ASAN_UNPOISON_MEMORY_REGION(data_, bytes_);
#endif
  munmap(data_, bytes_);
}

// ---------------------------------------------------------------------------
// Unique subtables.
// ---------------------------------------------------------------------------

std::uint64_t Manager::hashTriple(Var var, NodeIndex low, NodeIndex high) {
  // Two full mix64 rounds. The first round sees (low, high) in disjoint
  // 32-bit lanes, so — unlike a shifted-XOR fold — bucket distribution
  // does not degrade once the pool exceeds 2^20 nodes and child indices
  // start overlapping each other's lanes. The inputs are tagged edges;
  // the complement bit participates in the hash like any other bit.
  const std::uint64_t children =
      (std::uint64_t{low} << 32) | std::uint64_t{high};
  return mix64(mix64(children) ^ std::uint64_t{var});
}

NodeIndex Manager::mk(Var var, NodeIndex low, NodeIndex high) {
  assert(var < varCount_);
  if (low == high) return low;
  // Canonicalization: the then-edge must be regular. When it is not,
  // factor the sign out of both children (ITE(v; ¬a, ¬b) = ¬ITE(v; a, b))
  // and return a complemented edge to the shared node.
  const bool complementOut = isComplement(high);
  if (complementOut) {
    low = negateEdge(low);
    high = negateEdge(high);
  }
  assert(nodeLevel(low) > indexToLevel_[var] &&
         nodeLevel(high) > indexToLevel_[var]);

  ++stats_.uniqueProbes;
  Subtable& st = subtables_[var];
  const std::uint64_t h = hashTriple(var, low, high);
  for (NodeIndex n = st.buckets[h & (st.buckets.size() - 1)]; n != kNil;
       n = nodes_[n].next) {
    const Node& node = nodes_[n];
    assert(node.var == var);
    if (node.low == low && node.high == high)
      return makeEdge(n, complementOut);
  }
  if (st.count + 1 > st.buckets.size()) rehashSubtable(st);
  const NodeIndex n = allocNode(var, low, high);
  const std::size_t b = h & (st.buckets.size() - 1);
  nodes_[n].next = st.buckets[b];
  st.buckets[b] = n;
  ++st.count;
  return makeEdge(n, complementOut);
}

NodeIndex Manager::allocNode(Var var, NodeIndex low, NodeIndex high) {
  NodeIndex n;
  if (freeList_ != kNil) {
    n = freeList_;
    freeList_ = nodes_[n].next;
    nodes_[n] = Node{var, low, high, kNil};
  } else {
    n = static_cast<NodeIndex>(nodes_.size());
    // A node index must leave room for the complement tag (edges are
    // (index << 1) | sign) plus the 4-bit op tag the operation cache
    // packs into the top of its a-operand slot, so the pool is capped at
    // 2^27 nodes (~2.7 GB of Node storage — far beyond this machine).
    if (n >= (NodeIndex{1} << 27))
      throw std::length_error("BDD node pool exhausted");
    nodes_.push_back(Node{var, low, high, kNil});
    extRefs_.push_back(0);
  }
  ++liveNodes_;
  stats_.liveNodes = liveNodes_;
  if (liveNodes_ > stats_.peakLiveNodes) stats_.peakLiveNodes = liveNodes_;
  return n;
}

void Manager::rehashSubtable(Subtable& st) {
  std::vector<NodeIndex> fresh(st.buckets.size() * 2, kNil);
  for (const NodeIndex head : st.buckets) {
    NodeIndex n = head;
    while (n != kNil) {
      const NodeIndex next = nodes_[n].next;
      const Node& node = nodes_[n];
      const std::size_t nb =
          hashTriple(node.var, node.low, node.high) & (fresh.size() - 1);
      nodes_[n].next = fresh[nb];
      fresh[nb] = n;
      n = next;
    }
  }
  st.buckets = std::move(fresh);
}

// ---------------------------------------------------------------------------
// External references and garbage collection.
// ---------------------------------------------------------------------------

void Manager::ref(NodeIndex n) {
  // Handle copies are the widest cross-thread surface: a Bdd copied on
  // the wrong thread races every other handle of this manager.
  assertOwned();
  ++extRefs_[nodeOf(n)];
}

void Manager::deref(NodeIndex n) {
  assertOwned();
  assert(extRefs_[nodeOf(n)] > 0);
  --extRefs_[nodeOf(n)];
}

void Manager::maybeGc() {
  // Every public Bdd operation passes through here, so this single check
  // covers the whole ops.cpp surface.
  assertOwned();
  // Only called at public operation boundaries, never from inside a
  // recursive kernel, so intermediate results cannot be reclaimed.
  if (liveNodes_ >= gcThreshold_) {
    const std::size_t before = liveNodes_;
    collectGarbage();
    // If the heap is mostly live, collecting again soon is wasted work:
    // back off geometrically.
    if (liveNodes_ * 2 > before) gcThreshold_ *= 2;
  }
  // The cache's only growth point: decide once a table's worth of stores
  // has accumulated since the last decision.
  if (stats_.cacheStores - cacheStoresAtGrow_ >= cacheSize_) maybeGrowCache();
  if (autoReorder_ && liveNodes_ >= reorderThreshold_) {
    reorderNow();
    // Geometric backoff: re-trigger only after the live set has grown well
    // past the sifted size AND well past the last trigger point, bounding
    // the number of passes logarithmically in the peak (a workload whose
    // working set hovers just above a fixed threshold would sift on every
    // operation boundary otherwise).
    reorderThreshold_ = std::max(liveNodes_ * 2, reorderThreshold_ * 2);
  }
}

void Manager::markRecursive(NodeIndex root) {
  // Iterative DFS over NODE indices (the complement tag is irrelevant to
  // liveness); state spaces of 160+ boolean variables produce BDDs too
  // deep-ish for comfort with recursion during GC.
  static thread_local std::vector<NodeIndex> stack;
  stack.clear();
  stack.push_back(root);
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    if (marks_[n]) continue;
    marks_[n] = true;
    if (nodes_[n].var == kTerminalVar) continue;
    stack.push_back(nodeOf(nodes_[n].low));
    stack.push_back(nodeOf(nodes_[n].high));
  }
}

void Manager::collectGarbage() {
  assertOwned();
  obs::Span span("bdd_gc", "bdd");
  const std::size_t beforeGc = liveNodes_;
  marks_.assign(nodes_.size(), false);
  marks_[kTerminalNode] = true;
  for (NodeIndex n = 0; n < extRefs_.size(); ++n) {
    if (extRefs_[n] > 0) markRecursive(n);
  }

  // Sweep: rebuild the subtables from live nodes; dead nodes join the
  // free list. Indices are stable, so external handles stay valid.
  for (Subtable& st : subtables_) {
    std::fill(st.buckets.begin(), st.buckets.end(), kNil);
    st.count = 0;
  }
  freeList_ = kNil;
  std::size_t live = 0;
  for (NodeIndex n = 1; n < nodes_.size(); ++n) {
    if (marks_[n]) {
      const Node& node = nodes_[n];
      Subtable& st = subtables_[node.var];
      const std::size_t b =
          hashTriple(node.var, node.low, node.high) & (st.buckets.size() - 1);
      nodes_[n].next = st.buckets[b];
      st.buckets[b] = n;
      ++st.count;
      ++live;
    } else if (nodes_[n].var != kTerminalVar) {
      stats_.nodesFreed += 1;
      nodes_[n].var = kTerminalVar;  // tombstone
      nodes_[n].next = freeList_;
      freeList_ = n;
    } else {
      // already on the free list from a previous collection
      nodes_[n].next = freeList_;
      freeList_ = n;
    }
  }
  liveNodes_ = live;
  stats_.liveNodes = live;
  if (live > stats_.peakReachableNodes) stats_.peakReachableNodes = live;
  stats_.gcRuns += 1;
  span.arg("live_before", beforeGc);
  span.arg("live_after", live);
  // Sweep the operation cache instead of clearing it: an entry survives
  // only if everything it references is still live. Slots hold tagged
  // edges, so liveness reads through nodeOf(). (For entries whose operand
  // slots carry non-node payloads — a renamed product's renaming id,
  // implies' boolean result — this is merely conservative: a stale-looking
  // payload drops a valid entry, never the reverse, because lookups
  // compare all operands exactly.)
  constexpr NodeIndex kKaEdgeMask =
      (NodeIndex{1} << kCacheOpShift) - 1;
  for (CacheEntry& e : std::span(cache_, cacheSize_)) {
    if (e.ka == kCacheEmpty) continue;
    const NodeIndex na = nodeOf(e.ka & kKaEdgeMask);
    const NodeIndex nb = nodeOf(e.b);
    const NodeIndex nc = nodeOf(e.c);
    const NodeIndex nr = nodeOf(e.result);
    if (na >= marks_.size() || nb >= marks_.size() || nc >= marks_.size() ||
        nr >= marks_.size() || !marks_[na] || !marks_[nb] || !marks_[nc] ||
        !marks_[nr]) {
      e.ka = kCacheEmpty;
    }
  }
}

// ---------------------------------------------------------------------------
// Operation cache.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t cacheHash(NodeIndex ka, NodeIndex b, NodeIndex c) {
  std::uint64_t k = ka;
  k = k * 0x100000001b3ULL ^ b;
  k = k * 0x100000001b3ULL ^ c;
  return mix64(k);
}
}  // namespace

bool Manager::cacheLookup(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                          NodeIndex& out) const {
  const NodeIndex ka =
      (static_cast<NodeIndex>(op) << kCacheOpShift) | a;
  ++stats_.cacheLookups;
  const CacheEntry& e = cache_[cacheHash(ka, b, c) & (cacheSize_ - 1)];
  if (e.ka != ka || e.b != b || e.c != c) return false;
  ++stats_.cacheHits;
  out = e.result;
  return true;
}

void Manager::cacheStore(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                         NodeIndex result) {
  const NodeIndex ka =
      (static_cast<NodeIndex>(op) << kCacheOpShift) | a;
  ++stats_.cacheStores;
  CacheEntry& e = cache_[cacheHash(ka, b, c) & (cacheSize_ - 1)];
  e.ka = ka;
  e.b = b;
  e.c = c;
  e.result = result;
}

void Manager::clearCache() {
  for (CacheEntry& e : std::span(cache_, cacheSize_)) e.ka = kCacheEmpty;
}

void Manager::maybeGrowCache() {
  // Direct-mapped tables lose entries to slot conflicts, and the loss
  // shows up as a poor hit rate DESPITE heavy store traffic. Grow
  // (power-of-two doubling, bounded) only when the window since the last
  // decision shows exactly that signature; cold caches and well-fitting
  // workloads keep the current size.
  const std::size_t lookups = stats_.cacheLookups - cacheLookupsAtGrow_;
  const std::size_t hits = stats_.cacheHits - cacheHitsAtGrow_;
  const std::size_t stores = stats_.cacheStores - cacheStoresAtGrow_;
  cacheLookupsAtGrow_ = stats_.cacheLookups;
  cacheHitsAtGrow_ = stats_.cacheHits;
  cacheStoresAtGrow_ = stats_.cacheStores;
  if (cacheSize_ >= kMaxCacheEntries) return;
  if (lookups < cacheSize_) return;       // too few probes to judge
  if (hits * 5 >= lookups * 2) return;    // >= 40% hit rate: healthy
  if (stores * 2 < cacheSize_) return;    // low occupancy: misses are cold
  // Double in place. An entry in slot i has hash bits i below the old
  // size, so under the doubled mask it belongs in i or i + old, decided
  // by the next hash bit: exactly where a rehash into a fresh table would
  // put it, so warm entries survive without a second array.
  const std::size_t old = cacheSize_;
  CacheEntry* upper = cache_ + old;
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(upper, old * sizeof(CacheEntry));
#endif
  std::uninitialized_fill_n(upper, old, CacheEntry{});
  for (std::size_t i = 0; i < old; ++i) {
    CacheEntry& e = cache_[i];
    if (e.ka == kCacheEmpty || (cacheHash(e.ka, e.b, e.c) & old) == 0) {
      continue;
    }
    upper[i] = e;
    e.ka = kCacheEmpty;
  }
  cacheSize_ = old * 2;
}

// ---------------------------------------------------------------------------
// Structural invariant checking (tests).
// ---------------------------------------------------------------------------

void Manager::checkInvariants() const {
  assertOwned();
  std::vector<bool> inTable(nodes_.size(), false);
  std::size_t tabled = 0;
  for (Var v = 0; v < varCount_; ++v) {
    const Subtable& st = subtables_[v];
    std::size_t chained = 0;
    for (const NodeIndex head : st.buckets) {
      for (NodeIndex n = head; n != kNil; n = nodes_[n].next) {
        if (n >= nodes_.size() || inTable[n])
          throw std::logic_error("bdd invariant: corrupt subtable chain");
        inTable[n] = true;
        ++chained;
        const Node& node = nodes_[n];
        if (node.var != v)
          throw std::logic_error(
              "bdd invariant: node filed under the wrong variable");
        if (isComplement(node.high))
          throw std::logic_error("bdd invariant: complemented then-edge");
        if (node.low == node.high)
          throw std::logic_error("bdd invariant: redundant node (low == high)");
        if (nodeOf(node.low) >= nodes_.size() ||
            nodeOf(node.high) >= nodes_.size())
          throw std::logic_error("bdd invariant: child edge out of range");
        if (nodeLevel(node.low) <= indexToLevel_[v] ||
            nodeLevel(node.high) <= indexToLevel_[v])
          throw std::logic_error("bdd invariant: child not strictly deeper");
      }
    }
    if (chained != st.count)
      throw std::logic_error("bdd invariant: subtable count mismatch");
    tabled += chained;
  }
  if (tabled != liveNodes_)
    throw std::logic_error("bdd invariant: live-node count mismatch");
  for (NodeIndex n = 1; n < nodes_.size(); ++n) {
    if (!inTable[n]) continue;
    const NodeIndex lo = nodeOf(nodes_[n].low);
    const NodeIndex hi = nodeOf(nodes_[n].high);
    if ((lo != kTerminalNode && !inTable[lo]) ||
        (hi != kTerminalNode && !inTable[hi]))
      throw std::logic_error("bdd invariant: child not in a unique table");
  }
}

// ---------------------------------------------------------------------------
// Leaf constructors.
// ---------------------------------------------------------------------------

Bdd Manager::constant(bool value) {
  assertOwned();
  return wrap(value ? kTrue : kFalse);
}

Bdd Manager::var(Var v) {
  assertOwned();
  if (v >= varCount_) throw std::out_of_range("BDD variable out of range");
  return wrap(mk(v, kFalse, kTrue));
}

Bdd Manager::nvar(Var v) {
  assertOwned();
  if (v >= varCount_) throw std::out_of_range("BDD variable out of range");
  // mk canonicalizes the complemented then-edge: the negative literal is
  // the complement edge to the positive literal's node, not a second node.
  return wrap(mk(v, kTrue, kFalse));
}

Bdd Manager::cube(std::span<const Var> vars) {
  assertOwned();
  // Build bottom-up (deepest level first) so each mk() is O(1). Sorting by
  // the current order keeps this correct after reordering; deduplication
  // keeps mk()'s strict level invariant when callers pass a variable twice
  // (a duplicate used to chain two nodes of the same variable, producing a
  // structurally invalid BDD).
  std::vector<Var> sorted(vars.begin(), vars.end());
  std::sort(sorted.begin(), sorted.end(),
            [&](Var a, Var b) { return indexToLevel_[a] < indexToLevel_[b]; });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  NodeIndex acc = kTrue;
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    acc = mk(*it, kFalse, acc);
  }
  return wrap(acc);
}

RenamingId Manager::internRenaming(std::span<const Var> perm,
                                   const Bdd& cube) {
  assertOwned();
  if (perm.size() != varCount_) {
    throw std::invalid_argument("renaming permutation has wrong arity");
  }
  if (std::any_of(perm.begin(), perm.end(),
                  [&](Var v) { return v >= varCount_; })) {
    throw std::invalid_argument("renaming permutation names no variable");
  }
  if (cube.manager() != this) {
    throw std::invalid_argument("renaming cube from a different manager");
  }
  for (std::size_t id = 0; id < renamings_.size(); ++id) {
    const Renaming& r = renamings_[id];
    if (r.cube == cube.raw() && std::equal(r.perm.begin(), r.perm.end(),
                                           perm.begin(), perm.end())) {
      return static_cast<RenamingId>(id);
    }
  }
  Renaming r{{perm.begin(), perm.end()}, {}, cube.raw()};
  for (Var v = 0; v < varCount_; ++v) {
    if (perm[v] != v) r.moved.push_back(v);
  }
  ref(r.cube);  // never released: the id stays valid as long as the manager
  renamings_.push_back(std::move(r));
  return static_cast<RenamingId>(renamings_.size() - 1);
}

}  // namespace stsyn::bdd
