#ifndef ACCLTL_SERVICE_RESULT_CACHE_H_
#define ACCLTL_SERVICE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace accltl {
namespace service {

/// Bounded, thread-safe LRU map from canonical request keys to cached
/// values. Strict LRU: a hit refreshes the entry; an insert past
/// capacity evicts the least-recently-used entry. Keys are full
/// canonical strings (schema text + formula text + options), not
/// hashes — a cache hit is an exact match, never a collision.
///
/// Capacity 0 disables the cache (lookups miss, inserts drop), so
/// callers need no separate "cache on?" branching.
template <typename Value>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// Copies the cached value into `*out` and refreshes its recency.
  bool Lookup(const std::string& key, Value* out) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    *out = it->second->second;
    return true;
  }

  /// Returns the number of entries evicted by this insert (0 or 1), so
  /// callers can account evictions without re-reading the counter (a
  /// read-back would race concurrent inserters). A value the insert
  /// displaces (the evicted entry, or the old value of `key`) is
  /// destroyed after the lock is released.
  size_t Insert(const std::string& key, Value value) {
    if (capacity_ == 0) return 0;
    // Declared before the lock, so destroyed after it is released.
    Entries victim;
    typename Index::node_type victim_key;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      std::swap(it->second->second, value);
      return 0;
    }
    lru_.emplace_front(key, std::move(value));
    index_.emplace(key, lru_.begin());
    if (lru_.size() <= capacity_) return 0;
    victim_key = index_.extract(lru_.back().first);
    victim.splice(victim.begin(), lru_, std::prev(lru_.end()));
    ++evictions_;
    return 1;
  }

  /// One-lock snapshot of all counters. The individual accessors below
  /// each take the lock separately, so a sequence of them can observe
  /// different points in time under concurrent traffic (e.g. hits+misses
  /// drifting past the request count); anything reporting several
  /// counters together — MetricsSnapshot, CLI summaries — must read
  /// this instead.
  struct Stats {
    size_t size = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Stats{lru_.size(), hits_, misses_, evictions_};
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }

  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }

  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

 private:
  using Entries = std::list<std::pair<std::string, Value>>;
  using Index = std::unordered_map<std::string, typename Entries::iterator>;

  mutable std::mutex mu_;
  /// Front = most recently used.
  Entries lru_;
  Index index_;
  size_t capacity_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace service
}  // namespace accltl

#endif  // ACCLTL_SERVICE_RESULT_CACHE_H_
