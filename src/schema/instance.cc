#include "src/schema/instance.h"

#include <algorithm>
#include <cassert>

namespace accltl {
namespace schema {

void Instance::UnionWith(const Instance& other) {
  assert(relations_.size() == other.relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    relations_[i] = store::FactSet::Union(relations_[i], other.relations_[i]);
  }
}

bool Instance::SubinstanceOf(const Instance& other) const {
  assert(relations_.size() == other.relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].get() == other.relations_[i].get()) continue;
    if (!relations_[i]->SubsetOf(*other.relations_[i])) return false;
  }
  return true;
}

size_t Instance::TotalFacts() const {
  size_t n = 0;
  for (const store::FactSet::Ptr& s : relations_) n += s->size();
  return n;
}

size_t Instance::MaterializedBytes() const {
  size_t b = relations_.size() *
             (sizeof(store::FactSet::Ptr) + sizeof(store::FactSet));
  for (const store::FactSet::Ptr& s : relations_) {
    b += s->size() * sizeof(store::FactId);
  }
  return b;
}

ConfigTree ConfigTree::Of(store::TreeDb* db, const Instance& config) {
  ConfigTree tree;
  tree.rel_refs.resize(static_cast<size_t>(config.num_relations()));
  for (RelationId r = 0; r < config.num_relations(); ++r) {
    const std::vector<store::FactId>& ids = config.facts(r)->ids();
    tree.rel_refs[static_cast<size_t>(r)] =
        db->SetFromKeys(ids.data(), ids.size());
  }
  tree.ref = db->InternTuple(tree.rel_refs.data(), tree.rel_refs.size());
  return tree;
}

ConfigTree ConfigTree::Extend(store::TreeDb* db, RelationId rel,
                              const std::vector<store::FactId>& facts) const {
  ConfigTree next = *this;
  size_t slot = static_cast<size_t>(rel);
  store::TreeRef set = rel_refs[slot];
  for (store::FactId f : facts) set = db->InsertSet(set, f);
  if (set != rel_refs[slot]) {
    next.rel_refs[slot] = set;
    next.ref = db->UpdateTuple(ref, rel_refs.size(), slot, set);
  }
  return next;
}

std::set<Value> Instance::ActiveDomain() const {
  const store::Store& store = store::Store::Get();
  std::set<Value> dom;
  for (store::ValueId v : ActiveDomainIds()) dom.insert(store.value(v));
  return dom;
}

std::vector<store::ValueId> Instance::ActiveDomainIds() const {
  const store::Store& store = store::Store::Get();
  std::vector<store::ValueId> out;
  for (const store::FactSet::Ptr& s : relations_) {
    for (store::FactId id : s->ids()) {
      const std::vector<store::ValueId>& vals = store.fact_values(id);
      out.insert(out.end(), vals.begin(), vals.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<store::FactId> Instance::MatchingIds(
    RelationId id, const std::vector<Position>& positions,
    const Tuple& binding) const {
  assert(positions.size() == binding.size());
  const store::Store& store = store::Store::Get();
  std::vector<store::FactId> out;
  // Un-interned binding values cannot occur in any interned fact.
  std::vector<store::ValueId> bound;
  bound.reserve(binding.size());
  for (const Value& v : binding) {
    store::ValueId vid = store.TryFindValue(v);
    if (vid == store::kNoValueId) return out;
    bound.push_back(vid);
  }
  for (store::FactId fact : relations_[static_cast<size_t>(id)]->ids()) {
    const std::vector<store::ValueId>& vals = store.fact_values(fact);
    bool match = true;
    for (size_t i = 0; i < positions.size(); ++i) {
      if (vals[static_cast<size_t>(positions[i])] != bound[i]) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(fact);
  }
  return out;
}

std::vector<Tuple> Instance::Matching(RelationId id,
                                      const std::vector<Position>& positions,
                                      const Tuple& binding) const {
  const store::Store& store = store::Store::Get();
  std::vector<Tuple> out;
  for (store::FactId fact : MatchingIds(id, positions, binding)) {
    out.push_back(store.tuple(fact));
  }
  return out;
}

uint64_t Instance::hash() const {
  uint64_t h = store::Mix64(relations_.size());
  for (size_t i = 0; i < relations_.size(); ++i) {
    h = store::Mix64(h ^ relations_[i]->hash() ^ i);
  }
  return h;
}

bool operator==(const Instance& a, const Instance& b) {
  if (a.relations_.size() != b.relations_.size()) return false;
  for (size_t i = 0; i < a.relations_.size(); ++i) {
    if (a.relations_[i].get() == b.relations_[i].get()) continue;
    if (*a.relations_[i] != *b.relations_[i]) return false;
  }
  return true;
}

bool operator<(const Instance& a, const Instance& b) {
  if (a.relations_.size() != b.relations_.size()) {
    return a.relations_.size() < b.relations_.size();
  }
  for (size_t i = 0; i < a.relations_.size(); ++i) {
    if (a.relations_[i].get() == b.relations_[i].get()) continue;
    if (a.relations_[i]->ids() != b.relations_[i]->ids()) {
      return a.relations_[i]->ids() < b.relations_[i]->ids();
    }
  }
  return false;
}

std::string Instance::ToString(const Schema& schema) const {
  std::string out;
  for (int r = 0; r < num_relations(); ++r) {
    std::vector<Tuple> rows;
    for (const Tuple& t : tuples(r)) rows.push_back(t);
    std::sort(rows.begin(), rows.end());
    for (const Tuple& t : rows) {
      out += schema.relation(r).name + TupleToString(t) + "\n";
    }
  }
  return out;
}

Instance Instance::Builder::Build() && {
  for (size_t r = 0; r < pending_.size(); ++r) {
    std::vector<store::FactId>& add = pending_[r];
    if (add.empty()) continue;
    base_.relations_[r] = store::FactSet::Union(
        base_.relations_[r], store::FactSet::FromUnsorted(std::move(add)));
  }
  return std::move(base_);
}

}  // namespace schema
}  // namespace accltl
