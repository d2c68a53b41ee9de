#include "symbolic/frontier.hpp"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "util/cancel.hpp"

namespace stsyn::symbolic {

using bdd::Bdd;
using bdd::Var;
using protocol::VarId;

const char* toString(ImagePolicy policy) {
  switch (policy) {
    case ImagePolicy::Monolithic:
      return "monolithic";
    case ImagePolicy::PerProcess:
      return "perprocess";
    case ImagePolicy::Auto:
      return "auto";
  }
  return "?";
}

std::optional<ImagePolicy> parseImagePolicy(std::string_view name) {
  if (name == "monolithic") return ImagePolicy::Monolithic;
  if (name == "perprocess") return ImagePolicy::PerProcess;
  if (name == "auto") return ImagePolicy::Auto;
  return std::nullopt;
}

ImagePolicy defaultImagePolicy() {
  // Re-read every call (NOT latched in a function-local static): tests and
  // embedders flip the environment between engine constructions, and the
  // old latched value silently ignored every change after the first read.
  // Only the malformed-value warning is once-per-process.
  const char* env = std::getenv("STSYN_IMAGE_POLICY");
  if (env == nullptr || *env == '\0') return ImagePolicy::Auto;
  if (const auto parsed = parseImagePolicy(env); parsed.has_value()) {
    return *parsed;
  }
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "stsyn: ignoring unknown STSYN_IMAGE_POLICY '%s' "
                 "(expected monolithic|perprocess|auto)\n",
                 env);
  }
  return ImagePolicy::Auto;
}

bool ImageEngine::resolveAuto() const {
  std::size_t sum = 0;
  for (const Bdd& part : parts_) sum += part.nodeCount();
  if (sum < kAutoPartitionNodeThreshold) return false;
  // Partition only on union blow-up: accumulate the union (memoized for
  // the monolithic products, which need it anyway) and bail out to the
  // partitioned mode the moment the accumulation outgrows the parts'
  // total — that both detects the blow-up and avoids paying for it.
  Bdd all = sp_->manager().falseBdd();
  for (const Bdd& part : parts_) {
    all |= part;
    if (all.nodeCount() > kAutoUnionBlowupFactor * sum) return true;
  }
  union_ = std::move(all);
  return false;
}

ImageEngine::ImageEngine(const SymbolicProtocol& sp, std::vector<Bdd> parts,
                         ImagePolicy policy)
    : sp_(&sp), parts_(std::move(parts)), perProcess_(true) {
  if (parts_.size() != sp.processCount()) {
    throw std::invalid_argument(
        "ImageEngine: per-process construction needs one part per process");
  }
  partitioned_ = policy == ImagePolicy::PerProcess ||
                 (policy == ImagePolicy::Auto && resolveAuto());
  if (partitioned_) buildProcessOps();
}

ImageEngine::ImageEngine(GenericTag, const SymbolicProtocol& sp,
                         std::vector<Bdd> parts, ImagePolicy policy)
    : sp_(&sp), parts_(std::move(parts)) {
  partitioned_ = parts_.size() > 1 &&
                 (policy == ImagePolicy::PerProcess ||
                  (policy == ImagePolicy::Auto && resolveAuto()));
}

ImageEngine ImageEngine::generic(const SymbolicProtocol& sp,
                                 std::vector<Bdd> parts, ImagePolicy policy) {
  return ImageEngine(GenericTag{}, sp, std::move(parts), policy);
}

ImageEngine::ImageEngine(const SymbolicProtocol& sp, Bdd rel) : sp_(&sp) {
  parts_.push_back(std::move(rel));
  union_ = parts_.front();
}

ImageEngine ImageEngine::forProtocol(const SymbolicProtocol& sp,
                                     ImagePolicy policy) {
  std::vector<Bdd> parts;
  parts.reserve(sp.processCount());
  for (std::size_t j = 0; j < sp.processCount(); ++j) {
    parts.push_back(sp.processRelation(j));
  }
  return ImageEngine(sp, std::move(parts), policy);
}

void ImageEngine::buildProcessOps() {
  const Encoding& enc = sp_->enc();
  const protocol::Protocol& p = enc.proto();
  bdd::Manager& m = enc.manager();
  const Var varCount = m.varCount();

  ops_.resize(parts_.size());
  for (std::size_t j = 0; j < parts_.size(); ++j) {
    ProcessOps& op = ops_[j];
    const protocol::Process& pr = p.processes[j];
    std::vector<Var> curW;
    std::vector<Var> nextW;
    std::vector<Var> nextUnwritten;
    op.nextToCurWritten.resize(varCount);
    op.curToNextWritten.resize(varCount);
    for (Var v = 0; v < varCount; ++v) {
      op.nextToCurWritten[v] = v;
      op.curToNextWritten[v] = v;
    }
    for (VarId v = 0; v < p.vars.size(); ++v) {
      const auto& cur = enc.curLevels(v);
      const auto& next = enc.nextLevels(v);
      if (pr.canWrite(v)) {
        curW.insert(curW.end(), cur.begin(), cur.end());
        nextW.insert(nextW.end(), next.begin(), next.end());
        for (std::size_t k = 0; k < cur.size(); ++k) {
          // Partial renames move support only within an interleaved
          // (cur, next) bit pair — monotone under any reorder because the
          // pair sifts as one atomic block.
          op.nextToCurWritten[next[k]] = cur[k];
          op.curToNextWritten[cur[k]] = next[k];
        }
      } else {
        nextUnwritten.insert(nextUnwritten.end(), next.begin(), next.end());
      }
    }
    op.curWrittenCube = m.cube(curW);
    op.nextWrittenCube = m.cube(nextW);
    op.nextUnwrittenCube = m.cube(nextUnwritten);
    stripFrame(j);
  }
}

void ImageEngine::stripFrame(std::size_t j) {
  // part_j = local_j AND frame_j with frame_j = AND (next_v = cur_v) over
  // the unwritten v, so existentially dropping those next copies yields
  // exactly the frame-free local relation.
  assert(parts_[j].implies(sp_->frame(j)) &&
         "per-process ImageEngine part violates its process frame");
  ops_[j].local = parts_[j].exists(ops_[j].nextUnwrittenCube);
}

const Bdd& ImageEngine::relation() const {
  if (!union_.valid()) {
    Bdd all = sp_->manager().falseBdd();
    for (const Bdd& part : parts_) all |= part;
    union_ = std::move(all);
  }
  return union_;
}

Bdd ImageEngine::imagePart(std::size_t i, const Bdd& s) const {
  ++stats_->partProducts;
  if (perProcess_ && partitioned_) {
    const ProcessOps& op = ops_[i];
    return op.local.andExists(s, op.curWrittenCube)
        .rename(op.nextToCurWritten);
  }
  return sp_->image(parts_[i], s);
}

Bdd ImageEngine::preimagePart(std::size_t i, const Bdd& s) const {
  ++stats_->partProducts;
  if (perProcess_ && partitioned_) {
    const ProcessOps& op = ops_[i];
    return op.local.andExists(s.rename(op.curToNextWritten),
                              op.nextWrittenCube);
  }
  return sp_->preimage(parts_[i], s);
}

Bdd ImageEngine::image(const Bdd& s) const {
  // Every fixpoint of the system (ranking BFS, deadlock scans, SCC
  // detection, convergence checks) steps through these four entry points,
  // so one cancellation checkpoint here bounds how far past its deadline
  // any synthesis can run by a single relational product.
  util::checkCancellation();
  ++stats_->imageCalls;
  if (!partitioned_) {
    ++stats_->partProducts;
    return sp_->image(relation(), s);
  }
  Bdd out = sp_->manager().falseBdd();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].isFalse()) continue;
    out |= imagePart(i, s);
  }
  return out;
}

Bdd ImageEngine::image(const Bdd& s, const Bdd& within) const {
  util::checkCancellation();
  ++stats_->imageCalls;
  if (!partitioned_) {
    ++stats_->partProducts;
    return sp_->image(relation(), s) & within;
  }
  Bdd out = sp_->manager().falseBdd();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].isFalse()) continue;
    out |= imagePart(i, s) & within;
  }
  return out;
}

Bdd ImageEngine::preimage(const Bdd& s) const {
  util::checkCancellation();
  ++stats_->preimageCalls;
  if (!partitioned_) {
    ++stats_->partProducts;
    return sp_->preimage(relation(), s);
  }
  Bdd out = sp_->manager().falseBdd();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].isFalse()) continue;
    out |= preimagePart(i, s);
  }
  return out;
}

Bdd ImageEngine::preimage(const Bdd& s, const Bdd& within) const {
  util::checkCancellation();
  ++stats_->preimageCalls;
  if (!partitioned_) {
    ++stats_->partProducts;
    return sp_->preimage(relation(), s) & within;
  }
  Bdd out = sp_->manager().falseBdd();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].isFalse()) continue;
    out |= preimagePart(i, s) & within;
  }
  return out;
}

Bdd ImageEngine::sources() const {
  util::checkCancellation();
  const Encoding& enc = sp_->enc();
  if (!partitioned_) return relation().exists(enc.nextCube());
  Bdd out = sp_->manager().falseBdd();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].isFalse()) continue;
    ++stats_->partProducts;
    out |= perProcess_ ? ops_[i].local.exists(ops_[i].nextWrittenCube)
                       : parts_[i].exists(enc.nextCube());
  }
  return out;
}

Bdd ImageEngine::targets() const {
  const Encoding& enc = sp_->enc();
  if (!partitioned_) {
    return enc.nextToCur(relation().exists(enc.curCube()));
  }
  Bdd out = sp_->manager().falseBdd();
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (parts_[i].isFalse()) continue;
    ++stats_->partProducts;
    if (perProcess_) {
      // A target assigns j's written variables from the next copy and
      // keeps the source's values elsewhere, which is exactly the
      // frame-free local relation with the written current copy dropped.
      const ProcessOps& op = ops_[i];
      out |= op.local.exists(op.curWrittenCube).rename(op.nextToCurWritten);
    } else {
      out |= enc.nextToCur(parts_[i].exists(enc.curCube()));
    }
  }
  return out;
}

ImageEngine ImageEngine::restricted(const Bdd& x) const {
  ImageEngine out(*this);
  // restrictRel is a conjunction, so it distributes over the union —
  // restricting the memoized union directly saves the K-way rebuild the
  // monolithic products would otherwise pay on the first call.
  out.union_ = union_.valid() ? sp_->restrictRel(union_, x) : Bdd();
  for (std::size_t i = 0; i < out.parts_.size(); ++i) {
    out.parts_[i] = sp_->restrictRel(out.parts_[i], x);
    if (perProcess_ && partitioned_) out.stripFrame(i);
  }
  return out;
}

void ImageEngine::updatePart(std::size_t i, Bdd part) {
  parts_.at(i) = std::move(part);
  union_ = Bdd();
  if (perProcess_ && partitioned_) stripFrame(i);
}

void ImageEngine::growPart(std::size_t i, const Bdd& delta) {
  parts_.at(i) |= delta;
  if (union_.valid()) union_ |= delta;
  if (perProcess_ && partitioned_) {
    // exists distributes over the disjunction, so the local grows by the
    // frame-stripped delta instead of re-stripping the whole part.
    assert(delta.implies(sp_->frame(i)) &&
           "per-process ImageEngine delta violates its process frame");
    ops_[i].local |= delta.exists(ops_[i].nextUnwrittenCube);
  }
}

}  // namespace stsyn::symbolic
