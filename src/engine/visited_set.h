#ifndef ACCLTL_ENGINE_VISITED_SET_H_
#define ACCLTL_ENGINE_VISITED_SET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/engine/cancel.h"
#include "src/engine/compact_table.h"
#include "src/engine/path_link.h"
#include "src/engine/visited_table.h"
#include "src/store/treedb.h"

namespace accltl {
namespace engine {

/// The single owner of the VisitedMode split (engine/cancel.h). Only
/// the mode's own storage is built: `treedb()` is non-null exactly
/// under kCompact, and deriving their nodes' tree refs from it is all
/// the searches know of the mode.
///
/// `bytes()`: the live entries' logical footprint (charged on insert,
/// refunded on evict; sizes, never capacities) plus the treedb arena —
/// deterministic whenever the search is. `OverBudget()` is the only
/// reader of ExecOptions::max_visited_bytes.
class VisitedAccounting {
 public:
  explicit VisitedAccounting(const ExecOptions& exec)
      : max_bytes_(exec.max_visited_bytes),
        treedb_(exec.visited_mode == VisitedMode::kCompact
                    ? std::make_unique<store::TreeDb>()
                    : nullptr) {}

  store::TreeDb* treedb() const { return treedb_.get(); }

  size_t bytes() const {
    return live_bytes_.load(std::memory_order_relaxed) +
           (treedb_ != nullptr ? treedb_->bytes() : 0);
  }
  size_t treedb_nodes() const {
    return treedb_ != nullptr ? treedb_->num_nodes() : 0;
  }

  /// True once bytes() exceeds a nonzero budget; latches
  /// memory_truncated(). Callers cut at their count-then-cut points.
  bool OverBudget() {
    if (max_bytes_ == 0 || bytes() <= max_bytes_) return false;
    memory_truncated_.store(true, std::memory_order_relaxed);
    return true;
  }
  bool memory_truncated() const {
    return memory_truncated_.load(std::memory_order_relaxed);
  }

 protected:
  void Charge(size_t b) { live_bytes_.fetch_add(b, std::memory_order_relaxed); }
  void Refund(size_t b) { live_bytes_.fetch_sub(b, std::memory_order_relaxed); }

  /// Quiescent callers only; invalidates every tree ref.
  void ResetAccounting() {
    if (treedb_ != nullptr) treedb_->Clear();
    live_bytes_.store(0, std::memory_order_relaxed);
    memory_truncated_.store(false, std::memory_order_relaxed);
  }

 private:
  size_t max_bytes_;
  std::unique_ptr<store::TreeDb> treedb_;
  std::atomic<size_t> live_bytes_{0};
  std::atomic<bool> memory_truncated_{false};
};

/// Concurrent dominance-dedup visited set of the witness searches.
/// `Key` is a search's exact state identity: `operator==`,
/// `uint64_t Hash() const`, `size_t Bytes() const` (owned bytes beyond
/// sizeof(Key)). Registered nodes expose `ref` (read under kCompact),
/// `depth`, `path` and `links`.
///
/// An entry dominates a candidate of the same identity when it is no
/// deeper and its path is no later in the prefix-first content order:
/// equal identities expand identically, so the candidate's subtree
/// could only rediscover pf-larger witnesses. kExact confirms identity
/// on full keys, kCompact by tree-ref equality (store/treedb.h), so
/// both modes keep the same entries.
template <typename Key, typename Step>
class VisitedSet : public VisitedAccounting {
 public:
  VisitedSet(const ExecOptions& exec, size_t shards)
      : VisitedAccounting(exec) {
    if (treedb() != nullptr) {
      compact_ = std::make_unique<CompactVisitedTable>(shards);
    } else {
      exact_ = std::make_unique<ShardedVisitedTable<Entry>>(shards);
    }
  }

  /// Enters a node; false when an existing entry dominates it (do not
  /// explore). `make_key()` runs under kExact only.
  template <typename Node, typename MakeKey>
  bool Register(const Node& node, const MakeKey& make_key) {
    if (compact_ != nullptr) {
      CompactEntry entry;
      entry.ref = node.ref;
      entry.depth = node.depth;
      entry.path = std::shared_ptr<const void>(node.path, node.path.get());
      bool dominated = compact_->CheckAndInsert(
          std::move(entry),
          [](const CompactEntry& existing, const CompactEntry& candidate) {
            // The table compares only ref-equal entries.
            return existing.depth <= candidate.depth &&
                   CmpChains(Chain(existing), Chain(candidate)) <= 0;
          },
          [this](const CompactEntry&) { Refund(sizeof(CompactEntry)); });
      if (!dominated) Charge(sizeof(CompactEntry));
      return !dominated;
    }
    Entry entry{make_key(), node.depth, node.path, node.links};
    size_t entry_bytes = EntryBytes(entry);
    uint64_t hash = entry.key.Hash();
    bool dominated = exact_->CheckAndInsert(
        hash, std::move(entry),
        [](const Entry& existing, const Entry& candidate) {
          return existing.depth <= candidate.depth &&
                 existing.key == candidate.key &&
                 CmpPathKeys(existing.links, candidate.links) <= 0;
        },
        [this](const Entry& evicted) { Refund(EntryBytes(evicted)); });
    if (!dominated) Charge(entry_bytes);
    return !dominated;
  }

  /// The pilot→sweep reset: the sweep re-registers from its roots, so
  /// no final count depends on what the pilot touched. Quiescent only.
  void Reset() {
    if (exact_ != nullptr) exact_->Clear();
    if (compact_ != nullptr) compact_->Clear();
    ResetAccounting();
  }

 private:
  using Link = PathLink<Step>;

  /// `path` pins the chain the `links` point into.
  struct Entry {
    Key key;
    uint32_t depth;
    std::shared_ptr<const Link> path;
    std::vector<const Link*> links;
  };

  /// Each exact entry is charged its own state: COW sharing between
  /// entries is an allocator courtesy, not a representation guarantee.
  static size_t EntryBytes(const Entry& entry) {
    return sizeof(Entry) + entry.links.size() * sizeof(const Link*) +
           entry.key.Bytes();
  }

  static const Link* Chain(const CompactEntry& entry) {
    return static_cast<const Link*>(entry.path.get());
  }

  std::unique_ptr<ShardedVisitedTable<Entry>> exact_;
  std::unique_ptr<CompactVisitedTable> compact_;
};

/// Serial seen-set of the LTS explorer, consulted only inside the level
/// barrier: one `Key` (as above) per distinct configuration under
/// kExact, charged sizeof(Key) + Bytes(); one tree ref under kCompact.
template <typename Key>
class SeenSet : public VisitedAccounting {
 public:
  explicit SeenSet(const ExecOptions& exec) : VisitedAccounting(exec) {
    if (treedb() != nullptr) {
      refs_ = std::make_unique<CompactRefSet>();
    } else {
      exact_ = std::make_unique<ShardedVisitedTable<Key>>(64);
    }
  }

  /// True when newly inserted. `make_key()` runs under kExact only.
  template <typename MakeKey>
  bool Insert(store::TreeRef ref, const MakeKey& make_key) {
    size_t bytes = sizeof(store::TreeRef);
    if (refs_ != nullptr) {
      if (!refs_->Insert(ref)) return false;
    } else {
      Key key = make_key();
      bytes = sizeof(Key) + key.Bytes();
      uint64_t hash = key.Hash();
      auto equal = [](const Key& a, const Key& b) { return a == b; };
      if (exact_->CheckAndInsert(hash, std::move(key), equal)) return false;
    }
    Charge(bytes);
    return true;
  }

 private:
  std::unique_ptr<ShardedVisitedTable<Key>> exact_;
  std::unique_ptr<CompactRefSet> refs_;
};

}  // namespace engine
}  // namespace accltl

#endif  // ACCLTL_ENGINE_VISITED_SET_H_
