#include "serve/persist.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "serve/cache.hpp"

namespace stsyn::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "stsynres";
constexpr int kVersion = 1;
constexpr const char* kSuffix = ".stsynres";

/// Reads exactly `len` bytes of payload; throws on truncation.
std::string readExact(std::istream& is, std::size_t len, const char* what) {
  std::string bytes(len, '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(len));
  if (static_cast<std::size_t>(is.gcount()) < len) {
    throw std::runtime_error(std::string("cache entry: truncated ") + what);
  }
  return bytes;
}

}  // namespace

void saveResultDocument(std::ostream& os, const std::string& key,
                        const std::string& result) {
  os << kMagic << ' ' << kVersion << ' ' << key.size() << ' ' << result.size()
     << '\n';
  os.write(key.data(), static_cast<std::streamsize>(key.size()));
  os.write(result.data(), static_cast<std::streamsize>(result.size()));
}

void loadResultDocument(std::istream& is, std::string& key,
                        std::string& result) {
  std::string magic;
  int version = 0;
  std::uint64_t keyBytes = 0;
  std::uint64_t resultBytes = 0;
  if (!(is >> magic >> version >> keyBytes >> resultBytes) ||
      magic != kMagic) {
    throw std::runtime_error("cache entry: bad header");
  }
  if (version != kVersion) {
    throw std::runtime_error("cache entry: unsupported version");
  }
  // Reject implausible declared sizes before allocating for them: a
  // hostile header must not turn into a multi-gigabyte allocation.
  if (keyBytes > kMaxPersistKeyBytes || resultBytes > kMaxPersistResultBytes) {
    throw std::runtime_error("cache entry: declared size is implausible");
  }
  if (is.get() != '\n') {
    throw std::runtime_error("cache entry: bad header terminator");
  }
  key = readExact(is, static_cast<std::size_t>(keyBytes), "key");
  result = readExact(is, static_cast<std::size_t>(resultBytes), "result");
  if (is.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("cache entry: trailing bytes after document");
  }
}

std::string cacheEntryFileName(const std::string& key) {
  static const char* hex = "0123456789abcdef";
  const std::uint64_t h = fnv1a(key);
  std::string name = "res-";
  for (int shift = 60; shift >= 0; shift -= 4) {
    name += hex[(h >> shift) & 0xF];
  }
  name += kSuffix;
  return name;
}

bool writeCacheEntry(const std::string& dir, const std::string& key,
                     const std::string& result) {
  std::error_code ec;
  fs::create_directories(dir, ec);  // idempotent; ignore failure here —
                                    // the open below reports it
  // Unique temp name per process + call: concurrent workers persisting
  // different entries (or racing on one) never tear each other's files,
  // and rename() makes the final document appear atomically.
  static std::atomic<std::uint64_t> serial{0};
  const fs::path target = fs::path(dir) / cacheEntryFileName(key);
  const fs::path tmp =
      fs::path(dir) / (".tmp-" + std::to_string(::getpid()) + "-" +
                       std::to_string(serial.fetch_add(1)) + kSuffix);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    saveResultDocument(out, key, result);
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

std::size_t loadCacheDir(
    const std::string& dir,
    const std::function<void(std::string key, std::string result)>& sink,
    std::size_t* rejected) {
  std::size_t loaded = 0;
  std::size_t bad = 0;
  std::error_code ec;
  std::vector<std::pair<fs::file_time_type, fs::path>> entries;
  for (const auto& it : fs::directory_iterator(dir, ec)) {
    const fs::path& p = it.path();
    if (p.extension() != kSuffix || !it.is_regular_file(ec)) continue;
    // Leftover temp files from a crashed writer are not entries.
    if (p.filename().string().starts_with(".tmp-")) continue;
    entries.emplace_back(fs::last_write_time(p, ec), p);
  }
  // Oldest first: replayed through ResultCache::insert, the newest
  // entries end up most-recent and survive LRU eviction at capacity.
  std::sort(entries.begin(), entries.end());
  for (const auto& [mtime, path] : entries) {
    std::ifstream in(path, std::ios::binary);
    std::string key;
    std::string result;
    try {
      if (!in) throw std::runtime_error("cache entry: cannot open");
      loadResultDocument(in, key, result);
    } catch (const std::runtime_error&) {
      ++bad;  // a corrupt entry is a miss, never a crash or a wrong answer
      continue;
    }
    sink(std::move(key), std::move(result));
    ++loaded;
  }
  if (rejected != nullptr) *rejected = bad;
  return loaded;
}

}  // namespace stsyn::serve
