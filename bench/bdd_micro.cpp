// Microbenchmarks of the BDD substrate (the repository's CUDD substitute):
// the operations whose cost the synthesis heuristic is built from. These
// are real google-benchmark loops (unlike the one-shot synthesis benches).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bdd/bdd.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/ranks.hpp"
#include "symbolic/relations.hpp"
#include "util/rng.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;
using bdd::Manager;
using bdd::Var;

/// A deterministic pseudo-random function over `vars` variables.
Bdd randomFunction(Manager& m, util::Rng& rng, Var vars, int ops) {
  std::vector<Bdd> pool;
  for (Var v = 0; v < vars; ++v) pool.push_back(m.var(v));
  for (int i = 0; i < ops; ++i) {
    const Bdd a = pool[rng.below(pool.size())];
    const Bdd b = pool[rng.below(pool.size())];
    switch (rng.below(3)) {
      case 0: pool.push_back(a & b); break;
      case 1: pool.push_back(a | b); break;
      default: pool.push_back(a ^ b); break;
    }
  }
  return pool.back();
}

void BM_Apply(benchmark::State& state) {
  const Var vars = static_cast<Var>(state.range(0));
  Manager m(vars);
  util::Rng rng(1);
  const Bdd f = randomFunction(m, rng, vars, 200);
  const Bdd g = randomFunction(m, rng, vars, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f & g);
    benchmark::DoNotOptimize(f | g);
    benchmark::DoNotOptimize(f ^ g);
  }
  state.counters["f_nodes"] = static_cast<double>(f.nodeCount());
  state.counters["g_nodes"] = static_cast<double>(g.nodeCount());
}

void BM_Negation(benchmark::State& state) {
  // With complement edges operator! is a bit flip on the handle. This
  // bench asserts the contract the complement-edge ablation rests on:
  // negation allocates ZERO nodes, no matter how large the operand.
  const Var vars = static_cast<Var>(state.range(0));
  Manager m(vars);
  util::Rng rng(6);
  const Bdd f = randomFunction(m, rng, vars, 300);
  m.collectGarbage();
  const std::size_t poolBefore = m.stats().liveNodes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(!f);
    benchmark::DoNotOptimize(!!f);
  }
  m.collectGarbage();
  state.counters["f_nodes"] = static_cast<double>(f.nodeCount());
  state.counters["pool_growth"] =
      static_cast<double>(m.stats().liveNodes - poolBefore);
  if (m.stats().liveNodes != poolBefore) {
    state.SkipWithError("operator! allocated nodes; negation must be O(1)");
  }
}

void BM_Minus(benchmark::State& state) {
  // minus() is the heuristic's hot path (every pass subtracts resolved
  // states); with complement edges the f & !g it expands to pays no
  // negation cost and shares the And cache with every other conjunction.
  const Var vars = static_cast<Var>(state.range(0));
  Manager m(vars);
  util::Rng rng(7);
  const Bdd f = randomFunction(m, rng, vars, 250);
  const Bdd g = randomFunction(m, rng, vars, 250);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.minus(g));
    benchmark::DoNotOptimize(g.minus(f));
  }
  state.counters["f_nodes"] = static_cast<double>(f.nodeCount());
}

void BM_Implies(benchmark::State& state) {
  // implies() is a pure recursive entailment test (implRec): it must
  // build no nodes at all, unlike the old notRec + And materialization.
  const Var vars = static_cast<Var>(state.range(0));
  Manager m(vars);
  util::Rng rng(8);
  const Bdd f = randomFunction(m, rng, vars, 250);
  const Bdd g = randomFunction(m, rng, vars, 250);
  const Bdd fOrG = f | g;
  m.collectGarbage();
  const std::size_t poolBefore = m.stats().liveNodes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.implies(fOrG));  // tautological entailment
    benchmark::DoNotOptimize(fOrG.implies(f));  // usually not
  }
  m.collectGarbage();
  state.counters["pool_growth"] =
      static_cast<double>(m.stats().liveNodes - poolBefore);
  if (m.stats().liveNodes != poolBefore) {
    state.SkipWithError("implies() allocated nodes; implRec must build none");
  }
}

void BM_Quantify(benchmark::State& state) {
  const Var vars = static_cast<Var>(state.range(0));
  Manager m(vars);
  util::Rng rng(2);
  const Bdd f = randomFunction(m, rng, vars, 200);
  std::vector<Var> half;
  for (Var v = 0; v < vars; v += 2) half.push_back(v);
  const Bdd cube = m.cube(half);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.exists(cube));
  }
}

/// Image computation on a real protocol relation (the heuristic's
/// workhorse): one image + one preimage of the token ring's p_im.
void BM_ImagePreimage(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const protocol::Protocol p = casestudies::tokenRing(k, 4);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  const core::Ranking ranking = core::computeRanks(sp);
  const Bdd notI = enc.validCur() & !sp.invariant();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.image(ranking.pim, notI));
    benchmark::DoNotOptimize(sp.preimage(ranking.pim, notI));
  }
  state.counters["pim_nodes"] = static_cast<double>(ranking.pim.nodeCount());
}

void BM_GroupExpand(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const protocol::Protocol p = casestudies::matching(k);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  const Bdd notI = enc.validCur() & !sp.invariant();
  const Bdd slice = sp.candidates(1) & notI;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.groupExpand(1, slice));
  }
}

void BM_GarbageCollection(benchmark::State& state) {
  Manager m(24);
  util::Rng rng(3);
  // Populate with garbage plus one live function.
  const Bdd keep = randomFunction(m, rng, 24, 400);
  for (int i = 0; i < 200; ++i) {
    (void)randomFunction(m, rng, 24, 50);
  }
  for (auto _ : state) {
    m.collectGarbage();
  }
  state.counters["live_nodes"] = static_cast<double>(m.stats().liveNodes);
}

void BM_HashTripleDistribution(benchmark::State& state) {
  // Regression guard: the previous hash packed `low` into bits 20..39, so
  // once the pool passed 2^20 nodes the low and high lanes overlapped and
  // bucket quality collapsed at exactly the scale the paper targets. Hash
  // triples shaped like a large pool's (dense sequential indices past
  // 2^20, plus random pairs) and fail the bench if the bucket distribution
  // degrades.
  constexpr std::size_t kBuckets = std::size_t{1} << 16;
  constexpr std::size_t kTriples = std::size_t{1} << 20;
  std::vector<std::uint32_t> load(kBuckets, 0);
  for (auto _ : state) {
    std::fill(load.begin(), load.end(), 0);
    util::Rng rng(5);
    for (std::size_t i = 0; i < kTriples / 2; ++i) {
      // Dense sequential children, as a freshly grown pool produces. The
      // children are TAGGED edges now — (index << 1) | sign — so the low
      // slot alternates complement bits the way a real pool's low edges
      // do (the high slot is always regular by the canonical invariant).
      const auto low = static_cast<bdd::NodeIndex>(
          ((((1u << 20) + i) << 1)) | (i & 1u));
      const auto high =
          static_cast<bdd::NodeIndex>(((1u << 20) + i + 1) << 1);
      ++load[Manager::hashTriple(static_cast<Var>(i % 160), low, high) &
             (kBuckets - 1)];
    }
    for (std::size_t i = 0; i < kTriples / 2; ++i) {
      const auto low = static_cast<bdd::NodeIndex>(
          (rng.below(1u << 22) << 1) | (rng.below(2)));
      const auto high =
          static_cast<bdd::NodeIndex>(rng.below(1u << 22) << 1);
      ++load[Manager::hashTriple(static_cast<Var>(rng.below(160)), low,
                                 high) &
             (kBuckets - 1)];
    }
  }

  const double expect =
      static_cast<double>(kTriples) / static_cast<double>(kBuckets);
  double chi2 = 0;
  std::uint32_t maxLoad = 0;
  for (const std::uint32_t l : load) {
    const double d = static_cast<double>(l) - expect;
    chi2 += d * d / expect;
    maxLoad = std::max(maxLoad, l);
  }
  const double chi2PerDof = chi2 / static_cast<double>(kBuckets - 1);
  state.counters["chi2_per_dof"] = chi2PerDof;
  state.counters["max_load"] = static_cast<double>(maxLoad);
  // A uniform hash scores chi2/dof ~= 1 and max load within a few times
  // the mean; the old overlapping hash scores orders of magnitude worse.
  if (chi2PerDof > 1.5 ||
      static_cast<double>(maxLoad) > 8 * expect) {
    state.SkipWithError("hashTriple bucket distribution degraded");
  }
}

void BM_Sift(benchmark::State& state) {
  // Cost of one full sifting pass over the classic adversarial function
  // (x0 & xn) | (x1 & x{n+1}) | ... declared with partners far apart.
  const Var n = static_cast<Var>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Manager m(2 * n);
    Bdd f = m.falseBdd();
    for (Var i = 0; i < n; ++i) f |= m.var(i) & m.var(n + i);
    const std::size_t before = f.nodeCount();
    state.ResumeTiming();
    m.reorderNow();
    state.PauseTiming();
    state.counters["nodes_before"] = static_cast<double>(before);
    state.counters["nodes_after"] = static_cast<double>(f.nodeCount());
    state.ResumeTiming();
  }
}

void BM_SatCount(benchmark::State& state) {
  const Var vars = static_cast<Var>(state.range(0));
  Manager m(vars);
  util::Rng rng(4);
  const Bdd f = randomFunction(m, rng, vars, 300);
  std::vector<Var> all(vars);
  for (Var v = 0; v < vars; ++v) all[v] = v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.satCount(all));
  }
}

BENCHMARK(BM_Apply)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_Negation)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_Minus)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_Implies)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_Quantify)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_ImagePreimage)->Arg(3)->Arg(4)->Arg(5);
BENCHMARK(BM_GroupExpand)->Arg(5)->Arg(7)->Arg(9);
BENCHMARK(BM_GarbageCollection);
BENCHMARK(BM_HashTripleDistribution);
BENCHMARK(BM_Sift)->Arg(8)->Arg(10)->Arg(12);
BENCHMARK(BM_SatCount)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
