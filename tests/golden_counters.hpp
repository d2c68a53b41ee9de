// The exact counter gate's shared pieces: which keys of a stats object are
// pinned, how a run's counters are read, and how they are rendered into
// and compared with a golden JSON object. test_golden pins the shipped
// inputs (counters.json); test_two_ring pins TR² from the synthesis it
// already runs (two_ring_counters.json).
//
// Regenerate intentionally with STSYN_UPDATE_GOLDEN=1 from an NDEBUG build.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "obs/json.hpp"

namespace stsyn::golden {

/// One run's pinned counters: every key of the stats object except the
/// wall-clock ones, in the document's order.
using Counters = std::vector<std::pair<std::string, double>>;

/// The kernel counters. The debug-only assertions in the relational
/// operators run BDD operations of their own, so these are pinned only in
/// NDEBUG builds; the symbolic counters do not depend on the build type.
#ifdef NDEBUG
inline constexpr bool kPinKernelCounters = true;
#else
inline constexpr bool kPinKernelCounters = false;
#endif

inline constexpr const char* kRegenerateHint =
    "; if the change is intentional regenerate with STSYN_UPDATE_GOLDEN=1 "
    "and review the diff";

inline bool isKernelKey(const std::string& key) {
  return key.rfind("cache_", 0) == 0 || key == "unique_probes" ||
         key == "peak_live_nodes";
}

inline bool isTimeKey(const std::string& key) {
  const std::string suffix = "_seconds";
  return key.size() >= suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Dynamic reordering moves every counter by design, so nothing is pinned
/// under STSYN_REORDER.
inline bool reorderEnabled() {
  const char* env = std::getenv("STSYN_REORDER");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

inline bool updateRequested() {
  return std::getenv("STSYN_UPDATE_GOLDEN") != nullptr;
}

/// The pinned keys of a stats object.
inline Counters countersOf(const obs::JsonValue& stats) {
  Counters out;
  for (const auto& [key, value] : stats.members) {
    if (!isTimeKey(key)) out.emplace_back(key, value.number);
  }
  return out;
}

/// The pinned keys of a run's stats, as the CLI's stats object spells them.
inline Counters countersOf(const core::SynthesisStats& stats) {
  std::ostringstream text;
  obs::JsonWriter w(text);
  stats.writeJson(w);
  const auto doc = obs::parseJson(text.str());
  if (!doc) {
    ADD_FAILURE() << "stats object does not parse";
    return {};
  }
  return countersOf(*doc);
}

/// One key per line at `indent`, so a moved counter is a one-line diff.
inline std::string renderCounters(const Counters& counters,
                                  const std::string& indent) {
  std::string out = "{\n";
  for (std::size_t k = 0; k < counters.size(); ++k) {
    const auto& [key, value] = counters[k];
    out += indent + "  " + obs::jsonQuote(key) + ": " + obs::jsonNumber(value) +
           (k + 1 < counters.size() ? ",\n" : "\n");
  }
  return out + indent + "}";
}

/// Compares a run's counters with its pinned object key by key; `where`
/// names the run in every failure. Kernel keys are skipped outside NDEBUG.
inline void expectPinned(const std::string& where, const Counters& got,
                         const obs::JsonValue& pinned) {
  std::map<std::string, double> gotByKey(got.begin(), got.end());
  for (const auto& [key, value] : pinned.members) {
    const auto it = gotByKey.find(key);
    if (it == gotByKey.end()) {
      ADD_FAILURE() << where << " " << key
                    << ": pinned key is missing from the stats object"
                    << kRegenerateHint;
      continue;
    }
    if (kPinKernelCounters || !isKernelKey(key)) {
      EXPECT_EQ(it->second, value.number)
          << where << " " << key << ": got " << obs::jsonNumber(it->second)
          << ", pinned " << obs::jsonNumber(value.number) << kRegenerateHint;
    }
    gotByKey.erase(it);
  }
  for (const auto& [key, value] : gotByKey) {
    ADD_FAILURE() << where << " " << key << " = " << obs::jsonNumber(value)
                  << " is not pinned" << kRegenerateHint;
  }
}

}  // namespace stsyn::golden
