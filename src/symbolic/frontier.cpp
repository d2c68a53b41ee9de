#include "symbolic/frontier.hpp"

#include "util/cancel.hpp"

namespace stsyn::symbolic {

using bdd::Bdd;

ImageEngine::ImageEngine(const SymbolicProtocol& sp, Bdd rel)
    : sp_(&sp), rel_(std::move(rel)) {}

Bdd ImageEngine::image(const Bdd& s) const {
  // Every fixpoint of the system (ranking BFS, deadlock scans, SCC
  // detection, convergence checks) steps through these four entry points,
  // so one cancellation checkpoint here bounds how far past its deadline
  // any synthesis can run by a single relational product.
  util::checkCancellation();
  ++stats_->imageCalls;
  return sp_->image(rel_, s);
}

Bdd ImageEngine::image(const Bdd& s, const Bdd& within) const {
  util::checkCancellation();
  ++stats_->imageCalls;
  return sp_->image(rel_, s) & within;
}

Bdd ImageEngine::preimage(const Bdd& s) const {
  util::checkCancellation();
  ++stats_->preimageCalls;
  return sp_->preimage(rel_, s);
}

Bdd ImageEngine::preimage(const Bdd& s, const Bdd& within) const {
  util::checkCancellation();
  ++stats_->preimageCalls;
  return sp_->preimage(rel_, s) & within;
}

Bdd ImageEngine::sources() const {
  util::checkCancellation();
  return rel_.exists(sp_->enc().nextCube());
}

Bdd ImageEngine::targets() const {
  const Encoding& enc = sp_->enc();
  return enc.nextToCur(rel_.exists(enc.curCube()));
}

ImageEngine ImageEngine::restricted(const Bdd& x) const {
  ImageEngine out(*this);
  out.rel_ = sp_->restrictRel(rel_, x);
  return out;
}

}  // namespace stsyn::symbolic
