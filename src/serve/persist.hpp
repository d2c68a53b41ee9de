// On-disk persistence for the serve result cache.
//
// One cache entry = one file in --cache-dir, holding a versioned document:
// a human-readable header that declares sizes up front, then the exact
// bytes. Format (version 1):
//
//   stsynres 1 <keyBytes> <resultBytes>\n
//   <key bytes><result bytes>
//
// The loader checks each declared size against a hard cap before it
// allocates, then reads exactly the declared bytes. Wrong magic or
// version, implausible declared sizes, truncated payloads, and trailing
// garbage all fail with a clean std::runtime_error — a corrupt entry
// degrades to a cache miss, never to a wrong or torn answer. The result
// fragment is stored verbatim, so a restarted daemon replays it
// byte-for-byte.
//
// Writes are atomic: the document goes to a unique temp file in the same
// directory and is rename()d into place, so a crash mid-write leaves
// either the old entry or no entry — never a half-written document.
// Entry filenames are `res-<16 hex of fnv1a(key)>.stsynres`; two keys
// colliding on the hash last-write-win the file, which the in-memory
// cache's full-key collision guard turns into a miss, not a lie.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

namespace stsyn::serve {

/// Hard caps on declared sizes; anything larger is corrupt or hostile
/// (canonical keys are kilobytes, results are bounded by the frame cap).
inline constexpr std::size_t kMaxPersistKeyBytes = 16u << 20;     // 16 MiB
inline constexpr std::size_t kMaxPersistResultBytes = 64u << 20;  // 64 MiB

/// Renders one versioned cache document.
void saveResultDocument(std::ostream& os, const std::string& key,
                        const std::string& result);

/// Parses one cache document; throws std::runtime_error on any corruption
/// (bad header, oversized declared lengths, truncation, trailing bytes).
void loadResultDocument(std::istream& is, std::string& key,
                        std::string& result);

/// The entry filename for a canonical key (relative to the cache dir).
[[nodiscard]] std::string cacheEntryFileName(const std::string& key);

/// Atomically writes the entry document into `dir` (temp file + rename).
/// Returns false (best effort, daemon keeps serving) when the directory
/// or file cannot be written.
bool writeCacheEntry(const std::string& dir, const std::string& key,
                     const std::string& result);

/// Callback-based directory scan: invokes `sink(key, result)` for every
/// loadable entry under `dir`, oldest first (so inserting in callback
/// order leaves the newest entries most-recent in an LRU). Corrupt or
/// truncated files are skipped, counted in `rejected` when non-null.
/// Returns the number of entries delivered.
std::size_t loadCacheDir(
    const std::string& dir,
    const std::function<void(std::string key, std::string result)>& sink,
    std::size_t* rejected = nullptr);

}  // namespace stsyn::serve
