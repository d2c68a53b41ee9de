// The daemon's content-hash keyed result cache.
//
// A synthesize request is cached under the CANONICAL form of its input,
// not its bytes: the parsed protocol is round-tripped through the printer
// (so whitespace, comments and formatting differences collapse; the
// printed text names every domain, read and write set, action, local
// predicate and the invariant) and concatenated with the request's option
// fingerprint. Entries are LRU-evicted; the full canonical key is
// stored alongside the 64-bit hash so a hash collision degrades to a
// cache miss, never to a wrong answer.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace stsyn::serve {

/// FNV-1a 64-bit over the canonical key.
[[nodiscard]] std::uint64_t fnv1a(std::string_view data);

class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached result fragment for this canonical key, or
  /// nullopt. Thread-safe; a hit refreshes the entry's LRU position.
  [[nodiscard]] std::optional<std::string> lookup(std::string_view key);

  /// Stores `result` under `key`, evicting the least-recently-used entry
  /// when full. A capacity of 0 disables caching entirely. When a cache
  /// directory is enabled, the entry is also written through to disk
  /// (atomic temp-file + rename; serve/persist.hpp) so a restarted
  /// daemon replays it byte-for-byte.
  void insert(std::string key, std::string result);

  /// Enables cross-run persistence under `dir`: existing versioned entry
  /// documents are loaded into the cache (corrupt or truncated ones are
  /// skipped — a bad entry degrades to a miss), and every future insert
  /// is written through. Returns the number of entries loaded; stores the
  /// number of rejected files in `rejected` when non-null. Call before
  /// the cache is shared across threads.
  std::size_t enablePersistence(const std::string& dir,
                                std::size_t* rejected = nullptr);

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::string key;
    std::string result;
  };

  void insertInMemory(std::string key, std::string result);

  std::size_t capacity_;
  std::string dir_;  ///< empty = in-memory only
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> byHash_;
};

}  // namespace stsyn::serve
