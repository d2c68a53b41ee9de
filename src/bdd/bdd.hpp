// A from-scratch Reduced Ordered Binary Decision Diagram (ROBDD) package.
//
// This is the repository's substitute for the CUDD/GLU library the paper's
// STSyn tool used. It provides exactly the algebra the synthesis heuristic
// needs:
//
//   * canonical node storage (per-variable unique subtables) with
//     COMPLEMENT EDGES: f and NOT f occupy one node, negation is an O(1)
//     zero-allocation bit flip, and the "then-edge is always regular"
//     canonicalization keeps structural equality semantic,
//   * the boolean connectives (all conjunction-shaped ones served by a
//     single cached And kernel via De Morgan), Xor, and negation,
//   * existential quantification over variable cubes,
//   * the AndExists relational product, and the fused image kernels
//     relNext/relPrev that step over interleaved (current, next) pairs and
//     return their result on the current-state variables directly,
//   * the renamed relational product ∃cube. f ∧ g[perm], which reads g's
//     variables through the permutation during the recursion, so the
//     renamed g is never built; order-preserving renaming (current-state
//     <-> next-state) is its f = TRUE, empty-cube case,
//   * model counting, model enumeration, evaluation, and per-BDD node
//     counts (the space metric the paper's Figures 7/9/11 report),
//   * mark-and-sweep garbage collection driven by RAII external handles,
//   * Rudell-style dynamic variable reordering (grouped sifting) with
//     in-place adjacent-level swaps, so external handles survive a reorder.
//
// Variables vs. levels: a `Var` is a STABLE INDEX that names a variable
// for the whole lifetime of the manager; the variable's LEVEL (its
// position in the current order, 0 = topmost) starts out equal to the
// index but diverges once dynamic reordering runs. All public functions
// take and return variable indices; `levelOf()` / `varAtLevel()` expose
// the indirection.
//
// Concurrency: a Manager is CONFINED to one thread — the thread that
// constructed it (rebindable via bindToCurrentThread after a handoff).
// Debug builds assert the confinement at every public operation boundary,
// including the Bdd handle ref/deref path, so a cross-thread access
// crashes instead of corrupting counters or the node pool silently.
// Distinct Managers are independent, so parallel synthesis instances (one
// per recovery schedule, as in the paper's Figure 1) each own a Manager.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

namespace stsyn::bdd {

/// A tagged EDGE into a Manager's node pool: the least-significant bit is
/// the complement (attributed negation) bit, the remaining bits are the
/// pool index of a node. Edge 0 is the TRUE terminal, edge 1 its
/// complement FALSE — the pool holds a single terminal node and every
/// function/negation pair shares one node, so negation is an O(1) bit
/// flip that allocates nothing.
using NodeIndex = std::uint32_t;

/// Stable identifier of a boolean variable. Equal to the variable's level
/// in the order at Manager construction; the level may change under
/// dynamic reordering while the index never does.
using Var = std::uint32_t;

/// A (permutation, cube) pair interned by Manager::internRenaming, the
/// context of Bdd::andExistsRenamed.
using RenamingId = std::uint32_t;

class Manager;

/// An owning, reference-counted handle to a BDD node.
///
/// Bdd values are cheap to copy; copying bumps an external reference count
/// in the Manager so garbage collection never frees a function the caller
/// still holds. A default-constructed Bdd is "null" and usable only as a
/// placeholder. Handles stay valid across dynamic reordering: a reorder
/// rewrites nodes in place and never changes which function a node index
/// denotes.
class Bdd {
 public:
  Bdd() = default;
  Bdd(const Bdd& other);
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other);
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  /// True for a handle that refers to an actual function.
  [[nodiscard]] bool valid() const { return mgr_ != nullptr; }

  [[nodiscard]] bool isFalse() const;
  [[nodiscard]] bool isTrue() const;

  /// Structural identity; with canonical BDDs this is semantic equality.
  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.index_ == b.index_;
  }

  // Boolean algebra. All operands must come from the same Manager.
  [[nodiscard]] Bdd operator&(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator|(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator^(const Bdd& rhs) const;
  [[nodiscard]] Bdd operator!() const;
  Bdd& operator&=(const Bdd& rhs) { return *this = *this & rhs; }
  Bdd& operator|=(const Bdd& rhs) { return *this = *this | rhs; }
  Bdd& operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }
  /// Difference: this AND NOT rhs.
  [[nodiscard]] Bdd minus(const Bdd& rhs) const { return *this & !rhs; }
  /// Implication test: is (this -> rhs) a tautology?
  [[nodiscard]] bool implies(const Bdd& rhs) const;

  /// Existential quantification over the positive cube `cube`.
  [[nodiscard]] Bdd exists(const Bdd& cube) const;
  /// Relational product: exists cube. (this AND rhs), computed in one pass.
  [[nodiscard]] Bdd andExists(const Bdd& rhs, const Bdd& cube) const;

  /// Fused image: { s' in within : exists s in this, (s, s') in rel }, with
  /// this, `within` and the result over the current-state variables and
  /// `rel` over (current, next) pairs — the pairs registered as two-member
  /// groups with Manager::setReorderGroups. One pass, one pair at a time:
  /// no next-state intermediate, no rename, and `within` prunes a branch
  /// before it is expanded. Precondition: every pair sits on adjacent
  /// levels (sifting and setLevelOrder keep them so); which member is on
  /// top does not matter. Throws std::logic_error when an operand's
  /// support leaves the registered pairs.
  [[nodiscard]] Bdd relNext(const Bdd& rel, const Bdd& within) const;
  /// Fused preimage: { s in within : exists s' in states, (s, s') in this },
  /// with `states`, `within` and the result over the current-state
  /// variables. Same pairs and precondition as relNext.
  [[nodiscard]] Bdd relPrev(const Bdd& states, const Bdd& within) const;

  /// Renamed relational product: exists cube. (this AND g[perm]) for the
  /// interned renaming `id` = (perm, cube), where g[perm] is g with each
  /// variable v replaced by perm[v]. One pass: g's node on v is read at
  /// the level of perm[v], so g[perm] is never built. The permutation must
  /// preserve the relative ORDER (current levels) of g's support (mk()
  /// asserts it in debug builds). Throws std::invalid_argument for
  /// operands from different managers or an id this manager never issued.
  [[nodiscard]] Bdd andExistsRenamed(const Bdd& g, RenamingId id) const;

  /// Renames variables: variable v becomes perm[v]. The f = TRUE,
  /// empty-cube case of andExistsRenamed, with the same precondition;
  /// interns `perm` on every call, so hot paths intern once and call
  /// andExistsRenamed instead.
  [[nodiscard]] Bdd rename(std::span<const Var> perm) const;

  /// Number of BDD nodes reachable from this function (terminals excluded),
  /// the space metric of the paper's experimental section.
  [[nodiscard]] std::size_t nodeCount() const;

  /// Number of satisfying assignments over exactly the variables in
  /// `vars` (strictly ascending indices). The support must be a subset of
  /// `vars`. Independent of the current variable order.
  [[nodiscard]] double satCount(std::span<const Var> vars) const;

  /// Evaluates the function on a complete assignment indexed by variable
  /// index.
  [[nodiscard]] bool eval(std::span<const char> assignment) const;

  /// Enumerates all satisfying assignments over `vars` (strictly ascending
  /// indices; must cover the support). The callback receives a per-position
  /// 0/1 vector aligned with `vars`. Enumeration order follows the current
  /// variable order; callers needing a canonical order must sort.
  void forEachSat(std::span<const Var> vars,
                  const std::function<void(std::span<const char>)>& fn) const;

  [[nodiscard]] Manager* manager() const { return mgr_; }
  [[nodiscard]] NodeIndex raw() const { return index_; }

 private:
  friend class Manager;
  Bdd(Manager* mgr, NodeIndex index);

  Manager* mgr_ = nullptr;
  NodeIndex index_ = 0;
};

/// Snapshot of a Manager's resource usage.
struct ManagerStats {
  std::size_t liveNodes = 0;      ///< currently allocated internal nodes
  std::size_t peakLiveNodes = 0;  ///< high-water mark since construction
  /// High-water mark of the REACHABLE node count, sampled after each
  /// mark-and-sweep (liveNodes includes dead-but-unswept nodes between
  /// collections, so its peak mostly reflects the GC trigger schedule;
  /// this one measures the function store itself). 0 until the first GC.
  std::size_t peakReachableNodes = 0;
  std::size_t gcRuns = 0;
  std::size_t nodesFreed = 0;  ///< cumulative nodes reclaimed by GC

  std::size_t cacheLookups = 0;  ///< operation-cache probes
  std::size_t cacheHits = 0;     ///< probes answered from the cache
  std::size_t cacheStores = 0;   ///< operation-cache result installs
  std::size_t uniqueProbes = 0;  ///< unique-table (mk) probes

  std::size_t reorderRuns = 0;  ///< completed sifting passes
  double reorderSeconds = 0.0;  ///< cumulative wall time spent sifting
  /// Cumulative live-node counts entering / leaving sifting passes, so
  /// (before - after) is the total reduction attributable to reordering.
  std::size_t reorderNodesBefore = 0;
  std::size_t reorderNodesAfter = 0;
};

/// Owner of the node pool, unique subtables, operation cache, GC machinery,
/// and the dynamic variable order.
class Manager {
 public:
  /// Creates a manager with a fixed number of boolean variables whose
  /// initial order equals their numeric index.
  explicit Manager(Var varCount);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  [[nodiscard]] Var varCount() const { return varCount_; }

  [[nodiscard]] Bdd constant(bool value);
  [[nodiscard]] Bdd falseBdd() { return constant(false); }
  [[nodiscard]] Bdd trueBdd() { return constant(true); }
  /// The projection function of variable `v` (or its negation).
  [[nodiscard]] Bdd var(Var v);
  [[nodiscard]] Bdd nvar(Var v);

  /// Conjunction of the positive literals of `vars` (a quantification
  /// cube). Duplicates are tolerated and ignored.
  [[nodiscard]] Bdd cube(std::span<const Var> vars);

  /// Interns the renaming (perm, cube) for Bdd::andExistsRenamed: perm
  /// maps each variable index to its replacement, and cube is a
  /// quantification cube of this manager. An equal pair interned before
  /// gets its old id back. The manager holds the cube for its lifetime.
  /// Throws std::invalid_argument when perm does not have varCount()
  /// entries, names a variable out of range, or the cube belongs to
  /// another manager.
  [[nodiscard]] RenamingId internRenaming(std::span<const Var> perm,
                                          const Bdd& cube);

  [[nodiscard]] const ManagerStats& stats() const { return stats_; }

  /// Re-pins the manager to the calling thread after an ownership handoff
  /// (e.g. a portfolio worker finished and the main thread takes over the
  /// winning instance). The previous owner must have quiesced first.
  void bindToCurrentThread() { owner_ = std::this_thread::get_id(); }

  /// Lower bound on live nodes before the next GC attempt; GC runs lazily
  /// at public operation boundaries.
  void setGcThreshold(std::size_t nodes) { gcThreshold_ = nodes; }

  /// Forces a mark-and-sweep collection now.
  void collectGarbage();

  /// Walks every live node and verifies the structural invariants of the
  /// complement-edge representation: subtable membership matches the
  /// node's variable, the then-edge is regular (never complemented), no
  /// node is redundant (low != high), and children sit on strictly
  /// deeper levels. Throws std::logic_error on the first violation.
  /// Intended for tests (notably after reorder passes); cost is linear
  /// in the pool.
  void checkInvariants() const;

  // --- dynamic variable reordering ------------------------------------

  /// Current level (order position, 0 = topmost) of variable index `v`.
  [[nodiscard]] Var levelOf(Var v) const { return indexToLevel_[v]; }
  /// Variable index occupying order position `level`.
  [[nodiscard]] Var varAtLevel(Var level) const { return levelToIndex_[level]; }
  /// The full order, topmost first (levelToIndex).
  [[nodiscard]] std::vector<Var> currentOrder() const { return levelToIndex_; }

  /// Permutes the variable order to exactly `levelToIndex` (position 0 =
  /// topmost) via in-place adjacent swaps; external handles survive, the
  /// operation cache is invalidated. Intended for experiments and
  /// ablations (e.g. installing a deliberately bad order). Throws
  /// std::invalid_argument, before moving anything, when the order
  /// separates the members of a registered group: renames and the fused
  /// image kernels would build malformed BDDs on such a layout.
  void setLevelOrder(std::span<const Var> levelToIndex);

  /// Declares atomic reorder groups: each group is a list of variable
  /// indices that sifting keeps adjacent, in the given relative order.
  /// Members must sit on consecutive levels when this is called.
  /// Variables not mentioned sift individually. The protocol encoding
  /// registers its interleaved (current, next) bit pairs here so that
  /// current<->next renaming stays order-preserving under any reorder.
  /// A two-member group {c, n} is also the (current, next) pair that
  /// relNext/relPrev step over: c is the current-state copy.
  void setReorderGroups(std::vector<std::vector<Var>> groups);

  /// Enables/disables automatic sifting, triggered at operation
  /// boundaries when live nodes exceed the reorder threshold.
  void enableAutoReorder(bool on = true) { autoReorder_ = on; }
  void setReorderThreshold(std::size_t nodes) { reorderThreshold_ = nodes; }
  [[nodiscard]] bool autoReorderEnabled() const { return autoReorder_; }

  /// Runs one grouped sifting pass now (collects garbage first). External
  /// handles remain valid; the operation cache is invalidated.
  void reorderNow();

  /// Unique-table hash of an (var, low, high) triple. Public so benches
  /// and tests can assert its distribution quality at pool sizes beyond
  /// 2^20 nodes.
  [[nodiscard]] static std::uint64_t hashTriple(Var var, NodeIndex low,
                                                NodeIndex high);

 private:
  friend class Bdd;
  /// Test-only backdoor (defined by the test binaries) used to plant
  /// adversarial cache entries for the GC sweep regression tests.
  friend struct ManagerTestAccess;

  struct Node {
    Var var;         // variable INDEX; kTerminalVar for the terminal
    NodeIndex low;   // EDGE to the cofactor at var=0 (may be complemented)
    NodeIndex high;  // EDGE to the cofactor at var=1 (always regular)
    NodeIndex next;  // unique-subtable chain / free-list link (NODE index)
  };

  /// An anonymous private mapping, unmapped on destruction. The kernel
  /// backs a page only when it is first touched, so reserving the
  /// operation cache's cap costs address space, not memory.
  class Mapping {
   public:
    explicit Mapping(std::size_t bytes);
    ~Mapping();
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    [[nodiscard]] void* data() const { return data_; }

   private:
    void* data_;
    std::size_t bytes_;
  };

  struct CacheEntry {
    // Exact operands, not a hash: a false cache hit is a soundness bug.
    // The op tag is packed into the top 4 bits of `ka` (allocNode caps
    // node indices at 2^27, so a-operand edges need only 28 bits), which
    // keeps the entry at 16 aligned bytes: a probe touches exactly one
    // cache line, where a 20-byte entry straddles two about a third of
    // the time — measurable on a cache this much larger than LLC.
    NodeIndex ka = kCacheEmpty;  // (op << kCacheOpShift) | a-operand edge
    NodeIndex b = 0;
    NodeIndex c = 0;
    NodeIndex result = 0;
  };
  static constexpr int kCacheOpShift = 28;
  /// Empty-slot sentinel: op nibble 0xF is not a valid Op, so no stored
  /// key can ever equal it.
  static constexpr NodeIndex kCacheEmpty = ~NodeIndex{0};

  /// Unique table of the nodes of one variable. Keeping a subtable per
  /// variable makes "all nodes of variable v" — the unit a reorder swap
  /// rewrites — enumerable without scanning the pool.
  struct Subtable {
    std::vector<NodeIndex> buckets;  // heads; size a power of two
    std::size_t count = 0;           // live nodes of this variable
  };

  static constexpr Var kTerminalVar = ~Var{0};
  /// The single terminal node's pool index.
  static constexpr NodeIndex kTerminalNode = 0;
  /// Edges to the terminal: regular = TRUE, complemented = FALSE.
  static constexpr NodeIndex kTrue = 0;
  static constexpr NodeIndex kFalse = 1;
  static constexpr NodeIndex kNil = ~NodeIndex{0};

  // --- tagged-edge helpers --------------------------------------------
  [[nodiscard]] static constexpr NodeIndex nodeOf(NodeIndex e) {
    return e >> 1;
  }
  [[nodiscard]] static constexpr bool isComplement(NodeIndex e) {
    return (e & 1u) != 0;
  }
  [[nodiscard]] static constexpr NodeIndex negateEdge(NodeIndex e) {
    return e ^ 1u;
  }
  [[nodiscard]] static constexpr NodeIndex regularEdge(NodeIndex e) {
    return e & ~NodeIndex{1};
  }
  [[nodiscard]] static constexpr NodeIndex makeEdge(NodeIndex node,
                                                   bool complement) {
    return (node << 1) | NodeIndex{complement};
  }
  /// Pushes an edge's complement bit onto a child edge of its node.
  [[nodiscard]] static constexpr NodeIndex throughEdge(NodeIndex e,
                                                      NodeIndex child) {
    return child ^ (e & 1u);
  }

  /// Operation-cache tags. Negation is a bit flip and Or/Nand/Nor reach the
  /// And kernel through De Morgan, so none of them has a tag of its own.
  /// Values are pinned: the tag is hashed into the cache slot (cacheLookup).
  enum class Op : std::uint8_t {
    And = 0,
    Xor = 1,
    Exists = 3,
    AndExists = 4,
    AndExistsRenamed = 5,
    Impl = 7,
    RelNext = 8,
    RelPrev = 9,
  };

  // --- node pool -----------------------------------------------------
  /// Returns the canonical EDGE for ITE(var; high, low); re-establishes
  /// the regular-then-edge invariant by negating through when `high` is
  /// complemented.
  [[nodiscard]] NodeIndex mk(Var var, NodeIndex low, NodeIndex high);
  [[nodiscard]] NodeIndex allocNode(Var var, NodeIndex low, NodeIndex high);
  void rehashSubtable(Subtable& st);

  /// Level of the edge's node's variable; the terminal gets the
  /// out-of-band maximal pseudo-level so every internal level compares
  /// smaller.
  [[nodiscard]] Var nodeLevel(NodeIndex e) const {
    const Var v = nodes_[nodeOf(e)].var;
    return v == kTerminalVar ? kTerminalVar : indexToLevel_[v];
  }

  // --- thread confinement ---------------------------------------------
  /// Debug-build check that the calling thread owns this manager; called
  /// at every public operation boundary (compiled out under NDEBUG). The
  /// stats_ counters are mutated through `mutable` on const paths
  /// (cacheLookup), which is safe exactly because of this confinement.
  void assertOwned() const {
    assert(owner_ == std::this_thread::get_id() &&
           "bdd::Manager is thread-confined: accessed off its owning "
           "thread (bindToCurrentThread() re-pins after a handoff)");
  }

  // --- external references & GC --------------------------------------
  void ref(NodeIndex n);
  void deref(NodeIndex n);
  void maybeGc();
  void markRecursive(NodeIndex n);

  // --- operation cache ------------------------------------------------
  [[nodiscard]] bool cacheLookup(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                                 NodeIndex& out) const;
  void cacheStore(Op op, NodeIndex a, NodeIndex b, NodeIndex c,
                  NodeIndex result);
  void clearCache();
  /// Doubles the cache in place (up to its cap) when the probes since the
  /// last decision show a low hit rate at high store pressure — the
  /// direct-mapped table is thrashing on conflicts, not cold misses.
  /// maybeGc() calls it once a table's worth of stores has accumulated.
  void maybeGrowCache();

  // --- recursive kernels ----------------------------------------------
  [[nodiscard]] NodeIndex andRec(NodeIndex f, NodeIndex g);
  [[nodiscard]] NodeIndex orRec(NodeIndex f, NodeIndex g) {
    return negateEdge(andRec(negateEdge(f), negateEdge(g)));
  }
  [[nodiscard]] NodeIndex xorRec(NodeIndex f, NodeIndex g);
  [[nodiscard]] bool implRec(NodeIndex f, NodeIndex g);
  [[nodiscard]] NodeIndex existsRec(NodeIndex f, NodeIndex cube);
  [[nodiscard]] NodeIndex andExistsRec(NodeIndex f, NodeIndex g,
                                       NodeIndex cube);
  /// The one body of relNext (op == RelNext) and relPrev (op == RelPrev):
  /// s is the state set, r the relation, c the constraint.
  [[nodiscard]] NodeIndex relProductRec(Op op, NodeIndex s, NodeIndex r,
                                        NodeIndex c);
  /// The fixed arguments of one andExistsRenamed call: the interned
  /// permutation, its id (the cache key's third operand, standing in for
  /// the permutation and the cube), and the first level below every
  /// variable the permutation moves, from which on g[perm] is g.
  struct RenamedCall {
    const Var* perm;
    NodeIndex id;
    Var unmovedFrom;
  };
  [[nodiscard]] NodeIndex andExistsRenamedRec(NodeIndex f, NodeIndex g,
                                              NodeIndex cube,
                                              const RenamedCall& call);

  // --- reordering (reorder.cpp) ---------------------------------------
  void buildReorderRefs();
  [[nodiscard]] NodeIndex reorderMk(Var var, NodeIndex low, NodeIndex high);
  void reorderUnlink(NodeIndex n);
  void reorderDeref(NodeIndex n);
  void swapAdjacentLevels(Var level);
  void swapAdjacentGroups(std::size_t pos);
  void siftGroup(std::size_t orderPos);
  [[nodiscard]] std::size_t groupNodeCount(std::size_t gid) const;
  [[nodiscard]] Var groupStartLevel(std::size_t pos) const;

  // --- analysis helpers (non-allocating) --------------------------------
  [[nodiscard]] std::size_t nodeCountOf(NodeIndex f) const;
  [[nodiscard]] double satCountOf(NodeIndex f,
                                  std::span<const Var> vars) const;
  [[nodiscard]] bool evalOf(NodeIndex f, std::span<const char> assign) const;

  // Public-facing wrappers used by Bdd.
  [[nodiscard]] Bdd wrap(NodeIndex n) { return Bdd(this, n); }

  Var varCount_;
  std::vector<Node> nodes_;
  std::vector<Subtable> subtables_;  // one per variable index
  NodeIndex freeList_ = kNil;
  std::size_t liveNodes_ = 0;

  // The operation cache: a direct-mapped table over the first cacheSize_
  // entries (a power of two) of a mapping reserved at the growth cap.
  Mapping cacheMap_;
  CacheEntry* cache_;
  std::size_t cacheSize_;
  std::vector<std::uint32_t> extRefs_;  // per-node external reference count

  std::size_t gcThreshold_;
  // Mutable: cacheLookup is const (a probe does not change the function
  // algebra) but still counts itself. Safe by construction: the manager is
  // confined to owner_'s thread (assertOwned at every public boundary), so
  // the counters are never bumped concurrently.
  mutable ManagerStats stats_;

  /// The confining thread; construction pins the manager to the
  /// constructing thread.
  std::thread::id owner_ = std::this_thread::get_id();

  // Dynamic order: index <-> level, both identity at construction.
  std::vector<Var> indexToLevel_;
  std::vector<Var> levelToIndex_;

  // Reordering configuration and scratch state.
  bool autoReorder_ = false;
  std::size_t reorderThreshold_;
  std::vector<std::vector<Var>> reorderGroups_;  // partition of all vars
  std::vector<std::size_t> groupOrder_;  // group ids by position, sift scratch
  // The (current, next) pair of each variable index, from the two-member
  // groups; kTerminalVar for a variable in no such group.
  std::vector<Var> pairCur_;
  std::vector<Var> pairNext_;
  std::vector<std::uint32_t> reorderRefs_;  // total (ext+parent) refs, scratch

  // The interned renamings, indexed by RenamingId. Each cube carries one
  // external reference for the manager's lifetime.
  struct Renaming {
    std::vector<Var> perm;
    std::vector<Var> moved;  // the variables v with perm[v] != v
    NodeIndex cube;
  };
  std::vector<Renaming> renamings_;

  // Cache-counter snapshots at the last adaptive-growth decision point.
  std::size_t cacheLookupsAtGrow_ = 0;
  std::size_t cacheHitsAtGrow_ = 0;
  std::size_t cacheStoresAtGrow_ = 0;

  // Scratch marks for GC / traversals.
  std::vector<bool> marks_;
};

}  // namespace stsyn::bdd
