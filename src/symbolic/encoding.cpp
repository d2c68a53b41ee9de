#include "symbolic/encoding.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <stdexcept>

namespace stsyn::symbolic {

using bdd::Bdd;
using bdd::Var;
using protocol::VarId;

namespace {
int bitsForDomain(int d) {
  int b = 1;
  while ((1 << b) < d) ++b;
  return b;
}
}  // namespace

Encoding::Encoding(protocol::Protocol proto) : proto_(std::move(proto)) {
  protocol::validate(proto_);

  const std::size_t n = proto_.vars.size();
  bits_.resize(n);
  curLevels_.resize(n);
  nextLevels_.resize(n);

  // Levels are assigned in VarId order, which keeps allCur_/allNext_
  // ascending as forEachSat requires. Everything else indexes through
  // curLevels_/nextLevels_, since dynamic reordering moves the levels.
  Var level = 0;
  for (VarId v = 0; v < n; ++v) {
    bits_[v] = bitsForDomain(proto_.vars[v].domain);
    for (int k = 0; k < bits_[v]; ++k) {
      curLevels_[v].push_back(level++);
      nextLevels_[v].push_back(level++);
      bitPairs_.emplace_back(curLevels_[v][k], nextLevels_[v][k]);
      allCur_.push_back(curLevels_[v][k]);
      allNext_.push_back(nextLevels_[v][k]);
    }
  }
  mgr_ = std::make_unique<bdd::Manager>(level);

  // Each interleaved (cur, next) pair sifts as one atomic block: the pair
  // stays adjacent with cur on top, so the cur->next renamings (which
  // only ever move support within pairs) remain monotone on levels no
  // matter how the manager reorders.
  {
    std::vector<std::vector<Var>> groups;
    groups.reserve(bitPairs_.size());
    for (const auto& [cur, next] : bitPairs_) groups.push_back({cur, next});
    mgr_->setReorderGroups(std::move(groups));
  }
  // Opt-in dynamic reordering for the whole pipeline: STSYN_REORDER=1 (or
  // any value other than "0") turns on sifting under GC pressure.
  if (const char* env = std::getenv("STSYN_REORDER");
      env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
    mgr_->enableAutoReorder();
  }

  allLevels_.resize(level);
  for (Var l = 0; l < level; ++l) allLevels_[l] = l;

  // The cur->next renaming moves each current bit to its pair's next bit.
  // It is monotone on any function over current levels only, which is the
  // only way we ever use it.
  {
    std::vector<Var> perm(level);
    for (const auto& [c, x] : bitPairs_) {
      perm[c] = x;
      perm[x] = x;
    }
    curToNext_ = mgr_->internRenaming(perm, mgr_->trueBdd());
  }

  // Value indicators.
  curValue_.resize(n);
  nextValue_.resize(n);
  for (VarId v = 0; v < n; ++v) {
    const int d = proto_.vars[v].domain;
    curValue_[v].resize(d);
    nextValue_[v].resize(d);
    for (int val = 0; val < d; ++val) {
      Bdd cur = mgr_->trueBdd();
      Bdd nxt = mgr_->trueBdd();
      for (int k = 0; k < bits_[v]; ++k) {
        const bool bit = (val >> k) & 1;
        cur &= bit ? mgr_->var(curLevels_[v][k]) : mgr_->nvar(curLevels_[v][k]);
        nxt &= bit ? mgr_->var(nextLevels_[v][k])
                   : mgr_->nvar(nextLevels_[v][k]);
      }
      curValue_[v][val] = cur;
      nextValue_[v][val] = nxt;
    }
  }

  // Valid codes, per-variable frames, the diagonal, quantification cubes.
  validCur_ = mgr_->trueBdd();
  validNext_ = mgr_->trueBdd();
  diagonal_ = mgr_->trueBdd();
  unchanged_.resize(n);
  for (VarId v = 0; v < n; ++v) {
    Bdd someCur = mgr_->falseBdd();
    Bdd someNext = mgr_->falseBdd();
    for (int val = 0; val < proto_.vars[v].domain; ++val) {
      someCur |= curValue_[v][val];
      someNext |= nextValue_[v][val];
    }
    validCur_ &= someCur;
    validNext_ &= someNext;

    Bdd eq = mgr_->trueBdd();
    for (int k = 0; k < bits_[v]; ++k) {
      eq &= !(mgr_->var(curLevels_[v][k]) ^ mgr_->var(nextLevels_[v][k]));
    }
    unchanged_[v] = eq;
    diagonal_ &= eq;
  }
  nextCube_ = mgr_->cube(allNext_);
}

Bdd Encoding::curValue(VarId v, int value) const {
  if (value < 0 || value >= proto_.vars[v].domain) {
    throw std::out_of_range("curValue: value outside variable domain");
  }
  return curValue_[v][value];
}

Bdd Encoding::nextValue(VarId v, int value) const {
  if (value < 0 || value >= proto_.vars[v].domain) {
    throw std::out_of_range("nextValue: value outside variable domain");
  }
  return nextValue_[v][value];
}

Bdd Encoding::andNext(const Bdd& t, const Bdd& s) const {
  return t.andExistsRenamed(s, curToNext_);
}

Bdd Encoding::curToNext(const Bdd& f) const {
  return andNext(mgr_->trueBdd(), f);
}

Bdd Encoding::stateBdd(std::span<const int> state) const {
  assert(state.size() == proto_.vars.size());
  Bdd s = mgr_->trueBdd();
  for (VarId v = 0; v < state.size(); ++v) s &= curValue(v, state[v]);
  return s;
}

std::vector<int> Encoding::decodeCur(std::span<const char> bits) const {
  assert(bits.size() == allCur_.size());
  std::vector<int> state(proto_.vars.size());
  std::size_t pos = 0;
  // bits is aligned with allCurLevels(), which walks VarId order.
  for (VarId v = 0; v < proto_.vars.size(); ++v) {
    int val = 0;
    for (int k = 0; k < bits_[v]; ++k, ++pos) {
      val |= (bits[pos] ? 1 : 0) << k;
    }
    state[v] = val;
  }
  return state;
}

std::pair<std::vector<int>, std::vector<int>> Encoding::decodePair(
    std::span<const char> bits) const {
  assert(bits.size() == allLevels_.size());
  std::vector<int> cur(proto_.vars.size());
  std::vector<int> nxt(proto_.vars.size());
  for (VarId v = 0; v < proto_.vars.size(); ++v) {
    int cv = 0;
    int nv = 0;
    for (int k = 0; k < bits_[v]; ++k) {
      // allLevels_ is the identity, so positions equal the levels.
      cv |= (bits[curLevels_[v][k]] ? 1 : 0) << k;
      nv |= (bits[nextLevels_[v][k]] ? 1 : 0) << k;
    }
    cur[v] = cv;
    nxt[v] = nv;
  }
  return {cur, nxt};
}

double Encoding::countStates(const Bdd& s) const {
  return s.satCount(allCur_);
}

}  // namespace stsyn::symbolic
