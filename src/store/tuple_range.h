#ifndef ACCLTL_STORE_TUPLE_RANGE_H_
#define ACCLTL_STORE_TUPLE_RANGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>

#include "src/common/value.h"
#include "src/store/fact_set.h"

namespace accltl {
namespace store {

/// A lightweight read-only range of tuples, unifying the physical
/// representations the library uses: interned fact-id spans (instances,
/// candidate post relations), plain std::set<Tuple> (canonical
/// databases) and a single tuple (an access binding). Iteration yields
/// `const Tuple&` in every mode; fact-id mode decodes through the
/// global store at O(1) per step with no allocation. Every yielded
/// reference points into storage that outlives the range (the store,
/// the caller's set or tuple), never into the range itself.
///
/// A default-constructed range is empty — "no interpretation" and "the
/// empty interpretation" are deliberately the same thing here.
class TupleRange {
 public:
  /// The physical representation a range (and its iterators) reads.
  enum class Mode : uint8_t { kIds, kSet, kSingle };

  TupleRange() = default;
  /// Fact-id mode. `set` may be null (empty range). The range does not
  /// keep the set alive; the caller's set must outlive the range.
  explicit TupleRange(const FactSet* set)
      : ids_(set == nullptr || set->empty() ? nullptr : set->ids().data()),
        size_(set == nullptr ? 0 : set->size()) {}
  /// Raw span mode: `n` strictly ascending fact ids at `ids` (a
  /// FactSet's layout without the set), owned by the caller.
  TupleRange(const FactId* ids, size_t n)
      : ids_(n == 0 ? nullptr : ids), size_(n) {}
  /// Set mode. `tuples` may be null (empty range).
  explicit TupleRange(const std::set<Tuple>* tuples)
      : set_(tuples),
        size_(tuples == nullptr ? 0 : tuples->size()),
        mode_(tuples == nullptr ? Mode::kIds : Mode::kSet) {}
  /// Single-tuple mode: exactly `one`, which the caller owns.
  static TupleRange Single(const Tuple& one) {
    TupleRange r;
    r.one_ = &one;
    r.size_ = 1;
    r.mode_ = Mode::kSingle;
    return r;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(const Tuple& t) const {
    switch (mode_) {
      case Mode::kSet:
        return set_->count(t) > 0;
      case Mode::kSingle:
        return *one_ == t;
      case Mode::kIds:
        break;
    }
    if (ids_ == nullptr) return false;
    FactId id = Store::Get().TryFindTuple(t);
    if (id == kNoFactId) return false;
    return std::binary_search(ids_, ids_ + size_, id);  // ids ascending
  }

  class const_iterator {
   public:
    const Tuple& operator*() const {
      switch (mode_) {
        case Mode::kSet:
          return *it_;
        case Mode::kSingle:
          return *one_;
        case Mode::kIds:
          break;
      }
      return Store::Get().tuple(*p_);
    }
    const Tuple* operator->() const { return &**this; }
    const_iterator& operator++() {
      switch (mode_) {
        case Mode::kSet:
          ++it_;
          break;
        case Mode::kSingle:
          ++one_;  // one past the single tuple: the end position
          break;
        case Mode::kIds:
          ++p_;
          break;
      }
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      switch (a.mode_) {
        case Mode::kSet:
          return a.it_ == b.it_;
        case Mode::kSingle:
          return a.one_ == b.one_;
        case Mode::kIds:
          break;
      }
      return a.p_ == b.p_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    friend class TupleRange;
    const FactId* p_ = nullptr;
    std::set<Tuple>::const_iterator it_;
    const Tuple* one_ = nullptr;
    Mode mode_ = Mode::kIds;
  };

  const_iterator begin() const { return At(false); }
  const_iterator end() const { return At(true); }

 private:
  const_iterator At(bool end) const {
    const_iterator it;
    it.mode_ = mode_;
    switch (mode_) {
      case Mode::kSet:
        it.it_ = end ? set_->end() : set_->begin();
        break;
      case Mode::kSingle:
        it.one_ = end ? one_ + 1 : one_;
        break;
      case Mode::kIds:
        it.p_ = ids_ == nullptr || !end ? ids_ : ids_ + size_;
        break;
    }
    return it;
  }

  const FactId* ids_ = nullptr;
  const std::set<Tuple>* set_ = nullptr;
  const Tuple* one_ = nullptr;
  size_t size_ = 0;
  Mode mode_ = Mode::kIds;
};

}  // namespace store
}  // namespace accltl

#endif  // ACCLTL_STORE_TUPLE_RANGE_H_
