#include "src/engine/compact_table.h"

#include <utility>

namespace accltl {
namespace engine {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

CompactVisitedTable::CompactVisitedTable(size_t shard_count)
    : shard_mask_(RoundUpPow2(shard_count) - 1),
      shards_(RoundUpPow2(shard_count)) {
  for (Shard& shard : shards_) shard.slots.resize(kInitialSlots);
}

void CompactVisitedTable::MaybeGrow(Shard* shard) {
  size_t cap = shard->slots.size();
  if ((shard->live + shard->tombstones + 1) * 10 < cap * 7) return;
  // Grow only when live entries crowd the array; a tombstone-heavy
  // shard rehashes at the same capacity, dropping the tombstones.
  size_t new_cap = (shard->live + 1) * 10 >= cap * 5 ? cap * 2 : cap;
  std::vector<CompactEntry> old;
  old.swap(shard->slots);
  shard->slots.resize(new_cap);
  shard->tombstones = 0;
  size_t mask = new_cap - 1;
  for (CompactEntry& entry : old) {
    if (entry.ref == store::kNilTreeRef || entry.ref == kTombstoneRef) {
      continue;
    }
    size_t probe = static_cast<size_t>(store::Mix64(entry.ref)) & mask;
    while (shard->slots[probe].ref != store::kNilTreeRef) {
      probe = (probe + 1) & mask;
    }
    shard->slots[probe] = std::move(entry);
  }
}

size_t CompactVisitedTable::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.live;
  }
  return total;
}

void CompactVisitedTable::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.slots.clear();
    shard.slots.resize(kInitialSlots);
    shard.live = 0;
    shard.tombstones = 0;
  }
}

CompactRefSet::CompactRefSet() : slots_(64) {}

bool CompactRefSet::Insert(store::TreeRef ref) {
  if (ref == store::kNilTreeRef) {
    // kNilTreeRef is a legitimate key — a single-relation empty
    // configuration folds to the canonical empty set, and InternTuple
    // over one slot returns that slot itself (treedb.h) — but it
    // doubles as the open-addressing empty-slot marker, so it is
    // tracked out of band.
    if (has_nil_) return false;
    has_nil_ = true;
    ++live_;
    return true;
  }
  if ((live_ + 1) * 10 >= slots_.size() * 7) Grow();
  size_t mask = slots_.size() - 1;
  size_t probe = static_cast<size_t>(store::Mix64(ref)) & mask;
  while (slots_[probe] != store::kNilTreeRef) {
    if (slots_[probe] == ref) return false;
    probe = (probe + 1) & mask;
  }
  slots_[probe] = ref;
  ++live_;
  return true;
}

void CompactRefSet::Grow() {
  std::vector<store::TreeRef> old;
  old.swap(slots_);
  slots_.resize(old.size() * 2);
  size_t mask = slots_.size() - 1;
  for (store::TreeRef ref : old) {
    if (ref == store::kNilTreeRef) continue;
    size_t probe = static_cast<size_t>(store::Mix64(ref)) & mask;
    while (slots_[probe] != store::kNilTreeRef) probe = (probe + 1) & mask;
    slots_[probe] = ref;
  }
}

}  // namespace engine
}  // namespace accltl
