// Unit tests for the partitioned image engine (symbolic/frontier.hpp):
// construction modes and Auto resolution, product equivalence against the
// plain SymbolicProtocol operations, incremental part updates, restricted
// copies, and the shared drain-style work counters.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "casestudies/coloring.hpp"
#include "casestudies/token_ring.hpp"
#include "symbolic/frontier.hpp"

namespace {

using namespace stsyn;
using bdd::Bdd;
using symbolic::ImageEngine;
using symbolic::ImagePolicy;

TEST(ImagePolicy, ParseAndToStringRoundTrip) {
  for (const ImagePolicy p : {ImagePolicy::Monolithic, ImagePolicy::PerProcess,
                              ImagePolicy::Auto}) {
    const auto parsed = symbolic::parseImagePolicy(symbolic::toString(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(symbolic::parseImagePolicy("").has_value());
  EXPECT_FALSE(symbolic::parseImagePolicy("Monolithic").has_value());
  EXPECT_FALSE(symbolic::parseImagePolicy("per-process").has_value());
}

struct Fixture {
  protocol::Protocol p = casestudies::tokenRing(4, 3);
  symbolic::Encoding enc{p};
  symbolic::SymbolicProtocol sp{enc};
};

TEST(ImageEngine, ResolvedPolicyPerMode) {
  Fixture f;
  const ImageEngine mono =
      ImageEngine::forProtocol(f.sp, ImagePolicy::Monolithic);
  EXPECT_FALSE(mono.partitioned());
  EXPECT_EQ(mono.policy(), ImagePolicy::Monolithic);
  EXPECT_EQ(mono.partCount(), f.sp.processCount());

  const ImageEngine part =
      ImageEngine::forProtocol(f.sp, ImagePolicy::PerProcess);
  EXPECT_TRUE(part.partitioned());
  EXPECT_EQ(part.policy(), ImagePolicy::PerProcess);

  // This protocol's per-process relations share heavily, so the union
  // stays below the parts' total and Auto resolves monolithic.
  const ImageEngine aut = ImageEngine::forProtocol(f.sp, ImagePolicy::Auto);
  EXPECT_FALSE(aut.partitioned());

  const ImageEngine single(f.sp, f.sp.protocolRelation());
  EXPECT_FALSE(single.partitioned());
  EXPECT_EQ(single.partCount(), 1u);
  EXPECT_EQ(single.relation(), f.sp.protocolRelation());
}

TEST(ImageEngine, PerProcessConstructionRequiresOnePartPerProcess) {
  Fixture f;
  std::vector<Bdd> parts{f.sp.protocolRelation()};
  EXPECT_THROW(ImageEngine(f.sp, parts, ImagePolicy::PerProcess),
               std::invalid_argument);
}

TEST(ImageEngine, ProductsMatchPlainSymbolicOps) {
  Fixture f;
  const Bdd rel = f.sp.protocolRelation();
  const Bdd inv = f.sp.invariant();
  const Bdd valid = f.enc.validCur();
  for (const ImagePolicy policy :
       {ImagePolicy::Monolithic, ImagePolicy::PerProcess}) {
    const ImageEngine e = ImageEngine::forProtocol(f.sp, policy);
    EXPECT_EQ(e.relation(), rel);
    for (const Bdd& s : {inv, valid & !inv, valid}) {
      EXPECT_EQ(e.image(s), f.sp.image(rel, s));
      EXPECT_EQ(e.preimage(s), f.sp.preimage(rel, s));
      EXPECT_EQ(e.image(s, valid & !inv),
                f.sp.image(rel, s) & valid & !inv);
      EXPECT_EQ(e.preimage(s, valid & !inv),
                f.sp.preimage(rel, s) & valid & !inv);
    }
    EXPECT_EQ(e.sources(), f.sp.sources(rel));
    EXPECT_EQ(e.targets(), f.enc.nextToCur(rel.exists(f.enc.curCube())));
  }
}

TEST(ImageEngine, GenericSplitNeedsNoFrameStructure) {
  Fixture f;
  const Bdd rel = f.sp.protocolRelation();
  const Bdd inv = f.sp.invariant();
  // Split by source-in-invariant: neither half satisfies any process
  // frame, which the generic mode must tolerate.
  const ImageEngine e = ImageEngine::generic(
      f.sp, {rel & inv, rel & !inv}, ImagePolicy::PerProcess);
  EXPECT_TRUE(e.partitioned());
  EXPECT_EQ(e.relation(), rel);
  const Bdd s = f.enc.validCur() & !inv;
  EXPECT_EQ(e.image(s), f.sp.image(rel, s));
  EXPECT_EQ(e.preimage(s), f.sp.preimage(rel, s));
  EXPECT_EQ(e.sources(), f.sp.sources(rel));

  // A single generic part never partitions (nothing to split).
  const ImageEngine one =
      ImageEngine::generic(f.sp, {rel}, ImagePolicy::PerProcess);
  EXPECT_FALSE(one.partitioned());
}

TEST(ImageEngine, UpdateAndGrowPartKeepAllViewsConsistent) {
  Fixture f;
  for (const ImagePolicy policy :
       {ImagePolicy::Monolithic, ImagePolicy::PerProcess}) {
    ImageEngine e = ImageEngine::forProtocol(f.sp, policy);
    (void)e.relation();  // memoize, so growth must maintain it
    const Bdd delta = f.sp.candidates(1) & f.sp.invariant();
    ASSERT_FALSE(delta.isFalse());
    const Bdd grown = e.part(1) | delta;
    e.growPart(1, delta);
    EXPECT_EQ(e.part(1), grown);

    // Against a from-scratch engine over the same parts: identical
    // relation and products.
    std::vector<Bdd> parts;
    for (std::size_t j = 0; j < e.partCount(); ++j) parts.push_back(e.part(j));
    const ImageEngine fresh(f.sp, parts, policy);
    EXPECT_EQ(e.relation(), fresh.relation());
    const Bdd s = f.enc.validCur();
    EXPECT_EQ(e.image(s), fresh.image(s));
    EXPECT_EQ(e.preimage(s), fresh.preimage(s));
    EXPECT_EQ(e.sources(), fresh.sources());

    // updatePart can also shrink; the memoized union is rebuilt.
    e.updatePart(1, fresh.part(1).minus(delta));
    std::vector<Bdd> shrunkParts = parts;
    shrunkParts[1] = shrunkParts[1].minus(delta);
    const ImageEngine shrunk(f.sp, shrunkParts, policy);
    EXPECT_EQ(e.relation(), shrunk.relation());
    EXPECT_EQ(e.image(s), shrunk.image(s));
  }
}

TEST(ImageEngine, RestrictedMatchesRestrictedRelation) {
  Fixture f;
  const Bdd domain = f.enc.validCur() & !f.sp.invariant();
  for (const ImagePolicy policy :
       {ImagePolicy::Monolithic, ImagePolicy::PerProcess}) {
    const ImageEngine e = ImageEngine::forProtocol(f.sp, policy);
    (void)e.relation();
    const ImageEngine r = e.restricted(domain);
    EXPECT_EQ(r.policy(), e.policy());
    EXPECT_EQ(r.relation(),
              f.sp.restrictRel(f.sp.protocolRelation(), domain));
    EXPECT_EQ(r.image(domain), e.image(domain) & domain);
    EXPECT_EQ(r.sources(), f.sp.sources(r.relation()));
  }
}

TEST(ImageEngine, StatsCountAndDrainAcrossSharedCopies) {
  Fixture f;
  const ImageEngine e =
      ImageEngine::forProtocol(f.sp, ImagePolicy::PerProcess);
  EXPECT_EQ(e.stats().imageCalls, 0u);
  (void)e.image(f.sp.invariant());
  (void)e.preimage(f.sp.invariant());
  EXPECT_EQ(e.stats().imageCalls, 1u);
  EXPECT_EQ(e.stats().preimageCalls, 1u);
  // Partitioned: one product per non-false part and query.
  EXPECT_EQ(e.stats().partProducts, 2 * f.sp.processCount());

  // Copies (restricted() in particular) account into the same counter.
  const ImageEngine r = e.restricted(f.enc.validCur());
  (void)r.image(f.sp.invariant());
  EXPECT_EQ(e.stats().imageCalls, 2u);

  const symbolic::ImageEngineStats drained = e.drainStats();
  EXPECT_EQ(drained.imageCalls, 2u);
  EXPECT_EQ(drained.preimageCalls, 1u);
  EXPECT_EQ(e.stats().imageCalls, 0u);
  EXPECT_EQ(r.stats().imageCalls, 0u);  // shared, so the copy drained too
}

TEST(ImageEngine, AutoStaysMonolithicOnCompactUnions) {
  // Every engine the four case studies build keeps its union below the
  // parts' summed node counts (the parts share structure), so Auto must
  // resolve every one of them monolithic — partitioning only pays on
  // sharing-starved unions. coloring(16) is the adversarial case: 16
  // parts whose sum is well past kAutoPartitionNodeThreshold.
  const protocol::Protocol p = casestudies::coloring(16);
  symbolic::Encoding enc(p);
  symbolic::SymbolicProtocol sp(enc);
  std::vector<Bdd> parts;
  std::size_t sum = 0;
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    parts.push_back(sp.candidates(j));
    sum += parts.back().nodeCount();
  }
  ASSERT_GE(sum, symbolic::kAutoPartitionNodeThreshold);
  const ImageEngine e(sp, parts, ImagePolicy::Auto);
  EXPECT_FALSE(e.partitioned());
  ASSERT_LE(e.relation().nodeCount(),
            symbolic::kAutoUnionBlowupFactor * sum);
}

/// Restores one environment variable on scope exit.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(ImageEngineEnv, DefaultImagePolicyReReadsTheEnvironmentEveryCall) {
  // Regression: the default used to be latched in a function-local static,
  // so the first call froze the policy for the whole process and later
  // environment changes were silently ignored.
  const EnvGuard guard("STSYN_IMAGE_POLICY");
  ::setenv("STSYN_IMAGE_POLICY", "monolithic", 1);
  EXPECT_EQ(symbolic::defaultImagePolicy(), ImagePolicy::Monolithic);
  ::setenv("STSYN_IMAGE_POLICY", "perprocess", 1);
  EXPECT_EQ(symbolic::defaultImagePolicy(), ImagePolicy::PerProcess);
  ::unsetenv("STSYN_IMAGE_POLICY");
  EXPECT_EQ(symbolic::defaultImagePolicy(), ImagePolicy::Auto);
  ::setenv("STSYN_IMAGE_POLICY", "bogus", 1);
  EXPECT_EQ(symbolic::defaultImagePolicy(), ImagePolicy::Auto);
}

}  // namespace
