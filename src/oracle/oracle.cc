#include "src/oracle/oracle.h"

#include <algorithm>
#include <functional>

#include "src/logic/formula.h"
#include "src/logic/term.h"

namespace accltl {
namespace oracle {

namespace {

using logic::NodeKind;
using logic::PosFormula;
using logic::PosFormulaPtr;
using logic::PredSpace;
using logic::Term;

/// Plain environment: variable name -> value. The evaluator enumerates
/// complete assignments, so lookups never miss for closed sentences.
using Env = std::map<std::string, Value>;

bool ResolveTerm(const Term& t, const Env& env, Value* out) {
  if (t.is_const()) {
    *out = t.value();
    return true;
  }
  auto it = env.find(t.var_name());
  if (it == env.end()) return false;
  *out = it->second;
  return true;
}

const std::set<Tuple>* StepTuples(const NaiveStep& step,
                                  const logic::PredicateRef& pred,
                                  std::set<Tuple>* binding_singleton) {
  switch (pred.space) {
    case PredSpace::kPre: {
      auto it = step.pre.find(pred.id);
      return it == step.pre.end() ? nullptr : &it->second;
    }
    case PredSpace::kPost: {
      auto it = step.post.find(pred.id);
      return it == step.post.end() ? nullptr : &it->second;
    }
    case PredSpace::kBind: {
      if (pred.id != step.method) return nullptr;
      binding_singleton->clear();
      binding_singleton->insert(step.binding);
      return binding_singleton;
    }
    case PredSpace::kPlain:
      // Transition sentences have no kPlain interpretation (§2's M(t)
      // structure), matching logic::TransitionView.
      return nullptr;
  }
  return nullptr;
}

/// Recursive truth evaluation with a complete assignment built up at
/// kExists nodes by brute force over `domain`.
bool EvalRec(const PosFormula* f, const NaiveStep& step,
             const std::vector<Value>& domain, Env* env) {
  switch (f->kind()) {
    case NodeKind::kTrue:
      return true;
    case NodeKind::kFalse:
      return false;
    case NodeKind::kAtom: {
      // 0-ary IsBind proposition (Sch0−Acc, §4.2).
      if (f->pred().space == PredSpace::kBind && f->terms().empty()) {
        return f->pred().id == step.method;
      }
      std::set<Tuple> binding_singleton;
      const std::set<Tuple>* tuples =
          StepTuples(step, f->pred(), &binding_singleton);
      if (tuples == nullptr) return false;
      for (const Tuple& tuple : *tuples) {
        if (tuple.size() != f->terms().size()) continue;
        bool match = true;
        for (size_t i = 0; i < tuple.size(); ++i) {
          Value v;
          if (!ResolveTerm(f->terms()[i], *env, &v) || v != tuple[i]) {
            match = false;
            break;
          }
        }
        if (match) return true;
      }
      return false;
    }
    case NodeKind::kEq:
    case NodeKind::kNeq: {
      Value l, r;
      if (!ResolveTerm(f->lhs(), *env, &l)) return false;
      if (!ResolveTerm(f->rhs(), *env, &r)) return false;
      return f->kind() == NodeKind::kEq ? l == r : l != r;
    }
    case NodeKind::kAnd: {
      for (const PosFormulaPtr& c : f->children()) {
        if (!EvalRec(c.get(), step, domain, env)) return false;
      }
      return true;
    }
    case NodeKind::kOr: {
      for (const PosFormulaPtr& c : f->children()) {
        if (EvalRec(c.get(), step, domain, env)) return true;
      }
      return false;
    }
    case NodeKind::kExists: {
      // Lexical scoping: the quantified variables' outer bindings are
      // restored afterwards, for the conjuncts that follow.
      const std::vector<std::string>& vars = f->bound_vars();
      Env saved;
      for (const std::string& v : vars) {
        auto it = env->find(v);
        if (it != env->end()) saved.insert(*it);
      }
      std::function<bool(size_t)> assign = [&](size_t idx) -> bool {
        if (idx == vars.size()) return EvalRec(f->body().get(), step, domain, env);
        for (const Value& v : domain) {
          (*env)[vars[idx]] = v;
          if (assign(idx + 1)) return true;
        }
        return false;
      };
      bool res = assign(0);
      for (const std::string& v : vars) env->erase(v);
      for (const auto& [v, value] : saved) (*env)[v] = value;
      return res;
    }
  }
  return false;
}

void AddDomainValues(const NaiveInstance& inst, std::set<Value>* dom) {
  for (const auto& [rel, tuples] : inst) {
    (void)rel;
    for (const Tuple& t : tuples) dom->insert(t.begin(), t.end());
  }
}

}  // namespace

NaiveInstance ToNaive(const schema::Instance& instance) {
  NaiveInstance out;
  for (schema::RelationId r = 0; r < instance.num_relations(); ++r) {
    std::set<Tuple>& tuples = out[r];
    for (const Tuple& t : instance.tuples(r)) tuples.insert(t);
  }
  return out;
}

bool NaiveEvalSentence(const PosFormulaPtr& sentence, const NaiveStep& step) {
  // Active-domain semantics: quantifiers range over every value of the
  // step's structure plus the sentence's own constants.
  std::set<Value> dom_set;
  AddDomainValues(step.pre, &dom_set);
  AddDomainValues(step.post, &dom_set);
  dom_set.insert(step.binding.begin(), step.binding.end());
  for (const Value& v : sentence->Constants()) dom_set.insert(v);
  std::vector<Value> domain(dom_set.begin(), dom_set.end());
  Env env;
  return EvalRec(sentence.get(), step, domain, &env);
}

bool NaiveEvalFormula(const acc::AccPtr& f,
                      const std::vector<NaiveStep>& trace, size_t position) {
  if (position >= trace.size()) return false;
  switch (f->kind()) {
    case acc::AccKind::kAtom:
      return NaiveEvalSentence(f->sentence(), trace[position]);
    case acc::AccKind::kNot:
      return !NaiveEvalFormula(f->child(), trace, position);
    case acc::AccKind::kAnd: {
      for (const acc::AccPtr& c : f->children()) {
        if (!NaiveEvalFormula(c, trace, position)) return false;
      }
      return true;
    }
    case acc::AccKind::kOr: {
      for (const acc::AccPtr& c : f->children()) {
        if (NaiveEvalFormula(c, trace, position)) return true;
      }
      return false;
    }
    case acc::AccKind::kNext:
      return position + 1 < trace.size() &&
             NaiveEvalFormula(f->child(), trace, position + 1);
    case acc::AccKind::kUntil: {
      // Def. 2.1 over a finite path: ∃ j ≥ i with rhs at j and lhs at
      // every i ≤ k < j.
      for (size_t j = position; j < trace.size(); ++j) {
        if (NaiveEvalFormula(f->rhs(), trace, j)) return true;
        if (!NaiveEvalFormula(f->lhs(), trace, j)) return false;
      }
      return false;
    }
  }
  return false;
}

bool NaiveEvalOnPath(const acc::AccPtr& f, const schema::Schema& schema,
                     const schema::AccessPath& path,
                     const schema::Instance& initial) {
  if (path.empty()) return false;
  std::vector<NaiveStep> trace;
  NaiveInstance current = ToNaive(initial);
  for (const schema::AccessStep& s : path.steps()) {
    NaiveStep step;
    step.method = s.access.method;
    step.binding = s.access.binding;
    step.response = s.response;
    step.pre = current;
    schema::RelationId rel = schema.method(s.access.method).relation;
    for (const Tuple& t : s.response) current[rel].insert(t);
    step.post = current;
    trace.push_back(std::move(step));
  }
  return NaiveEvalFormula(f, trace, 0);
}

const char* OracleAnswerName(OracleAnswer a) {
  switch (a) {
    case OracleAnswer::kSat:
      return "sat";
    case OracleAnswer::kNoWithinBounds:
      return "no-within-bounds";
    case OracleAnswer::kUnknown:
      return "unknown";
  }
  return "?";
}

namespace {

/// The oracle's value universe, split by type so bindings and response
/// tuples respect declared position types.
struct ValuePools {
  std::vector<Value> strings;
  std::vector<Value> ints;
  std::vector<Value> bools;

  const std::vector<Value>& ForType(ValueType t) const {
    switch (t) {
      case ValueType::kString:
        return strings;
      case ValueType::kInt:
        return ints;
      case ValueType::kBool:
        return bools;
    }
    return strings;
  }
};

ValuePools BuildPools(const acc::AccPtr& formula,
                      const OracleOptions& options) {
  std::set<Value> values;
  for (const PosFormulaPtr& s : formula->AtomSentences()) {
    for (const Value& v : s->Constants()) values.insert(v);
  }
  for (const Value& v : options.extra_values) values.insert(v);
  // Fresh values standing in for "any value the outside world could
  // return". The "~" prefix cannot collide with workload-generated
  // names; distinct fresh values let witnesses use up to
  // num_fresh_values unconstrained values per type (the disjoint-block
  // argument for ≠-free formulas never needs more than the formula's
  // variable count).
  for (size_t k = 0; k < options.num_fresh_values; ++k) {
    values.insert(Value::Str("~o" + std::to_string(k)));
    values.insert(Value::Int(static_cast<int64_t>(9000001 + k)));
  }
  values.insert(Value::Bool(false));
  values.insert(Value::Bool(true));
  ValuePools pools;
  for (const Value& v : values) {
    switch (v.type()) {
      case ValueType::kString:
        pools.strings.push_back(v);
        break;
      case ValueType::kInt:
        pools.ints.push_back(v);
        break;
      case ValueType::kBool:
        pools.bools.push_back(v);
        break;
    }
  }
  return pools;
}

/// Enumerates every tuple with `types[i]` drawn from `per_position[i]`.
void EnumerateTuples(const std::vector<std::vector<Value>>& per_position,
                     size_t cap, bool* truncated,
                     std::vector<Tuple>* out) {
  Tuple current(per_position.size());
  std::function<bool(size_t)> rec = [&](size_t idx) -> bool {
    if (out->size() >= cap) {
      *truncated = true;
      return false;
    }
    if (idx == per_position.size()) {
      out->push_back(current);
      return true;
    }
    for (const Value& v : per_position[idx]) {
      current[idx] = v;
      if (!rec(idx + 1)) return false;
    }
    return true;
  };
  rec(0);
}

class PathEnumerator {
 public:
  PathEnumerator(const acc::AccPtr& formula, const schema::Schema& schema,
                 const NaiveInstance& initial, const OracleOptions& options)
      : formula_(formula),
        schema_(schema),
        options_(options),
        pools_(BuildPools(formula, options)) {
    current_ = initial;
  }

  OracleResult Run() {
    Dfs();
    OracleResult r;
    r.paths_explored = paths_;
    r.exhausted_budget = exhausted_;
    if (found_) {
      r.answer = OracleAnswer::kSat;
      r.has_witness = true;
      r.witness = schema::AccessPath(witness_steps_);
    } else if (exhausted_) {
      r.answer = OracleAnswer::kUnknown;
    } else {
      r.answer = OracleAnswer::kNoWithinBounds;
    }
    return r;
  }

 private:
  /// Binding value pool for one input position: the full universe, or
  /// (grounded, §2) only values already revealed in the current
  /// configuration.
  std::vector<Value> BindingPool(ValueType want) const {
    std::vector<Value> out;
    if (options_.grounded) {
      std::set<Value> dom;
      AddDomainValues(current_, &dom);
      for (const Value& v : dom) {
        if (v.type() == want) out.push_back(v);
      }
      return out;
    }
    return pools_.ForType(want);
  }

  void Dfs() {
    if (found_ || exhausted_) return;
    for (schema::AccessMethodId am = 0;
         am < schema_.num_access_methods() && !found_ && !exhausted_; ++am) {
      const schema::AccessMethod& m = schema_.method(am);
      const schema::Relation& rel = schema_.relation(m.relation);

      std::vector<std::vector<Value>> binding_pools(
          static_cast<size_t>(m.num_inputs()));
      bool empty_pool = false;
      for (int i = 0; i < m.num_inputs(); ++i) {
        binding_pools[static_cast<size_t>(i)] =
            BindingPool(rel.position_types[m.input_positions[i]]);
        if (binding_pools[static_cast<size_t>(i)].empty()) empty_pool = true;
      }
      if (empty_pool) continue;
      std::vector<Tuple> bindings;
      bool binding_truncated = false;
      EnumerateTuples(binding_pools, options_.max_response_candidates,
                      &binding_truncated, &bindings);
      if (binding_truncated) exhausted_ = true;

      for (const Tuple& binding : bindings) {
        if (found_ || exhausted_) break;
        // Candidate response tuples: anything well-formed — agreeing
        // with the binding on input positions, free elsewhere.
        std::vector<std::vector<Value>> tuple_pools(
            static_cast<size_t>(rel.arity()));
        for (int p = 0; p < rel.arity(); ++p) {
          tuple_pools[static_cast<size_t>(p)] =
              pools_.ForType(rel.position_types[static_cast<size_t>(p)]);
        }
        for (int i = 0; i < m.num_inputs(); ++i) {
          tuple_pools[static_cast<size_t>(m.input_positions[i])] = {
              binding[static_cast<size_t>(i)]};
        }
        std::vector<Tuple> candidates;
        bool truncated = false;
        EnumerateTuples(tuple_pools, options_.max_response_candidates,
                        &truncated, &candidates);
        if (truncated) exhausted_ = true;
        EnumerateResponses(am, binding, candidates);
      }
    }
  }

  void EnumerateResponses(schema::AccessMethodId am, const Tuple& binding,
                          const std::vector<Tuple>& candidates) {
    // All subsets of the candidates up to max_response_facts, smallest
    // first (the empty response is always a well-formed response). A
    // result-bounded method further caps the subset size at its bound
    // (bound 0: only the empty response is possible).
    std::set<Tuple> response;
    TryStep(am, binding, response);
    size_t limit = options_.max_response_facts;
    const schema::AccessMethod& m = schema_.method(am);
    if (m.bounded()) {
      limit = std::min(limit, static_cast<size_t>(m.result_bound));
    }
    std::function<void(size_t, size_t)> rec = [&](size_t start,
                                                  size_t remaining) {
      if (remaining == 0 || found_ || exhausted_) return;
      for (size_t i = start; i < candidates.size() && !found_ && !exhausted_;
           ++i) {
        response.insert(candidates[i]);
        TryStep(am, binding, response);
        rec(i + 1, remaining - 1);
        response.erase(candidates[i]);
      }
    };
    rec(0, limit);
  }

  void TryStep(schema::AccessMethodId am, const Tuple& binding,
               const std::set<Tuple>& response) {
    if (found_ || exhausted_) return;
    if (options_.require_idempotent) {
      for (const NaiveStep& prev : trace_) {
        if (prev.method == am && prev.binding == binding &&
            prev.response != response) {
          return;
        }
      }
    }
    if (paths_ >= options_.max_nodes) {
      exhausted_ = true;
      return;
    }
    ++paths_;

    NaiveStep step;
    step.method = am;
    step.binding = binding;
    step.response = response;
    step.pre = current_;
    schema::RelationId rel = schema_.method(am).relation;
    NaiveInstance post = current_;
    for (const Tuple& t : response) post[rel].insert(t);
    step.post = post;

    trace_.push_back(step);
    if (NaiveEvalFormula(formula_, trace_, 0)) {
      found_ = true;
      witness_steps_.clear();
      for (const NaiveStep& s : trace_) {
        witness_steps_.push_back(
            schema::AccessStep{schema::Access{s.method, s.binding},
                               s.response});
      }
      trace_.pop_back();
      return;
    }
    if (trace_.size() < options_.max_path_length) {
      NaiveInstance saved = std::move(current_);
      current_ = post;
      Dfs();
      current_ = std::move(saved);
    }
    trace_.pop_back();
  }

  const acc::AccPtr& formula_;
  const schema::Schema& schema_;
  const OracleOptions& options_;
  ValuePools pools_;
  NaiveInstance current_;
  std::vector<NaiveStep> trace_;
  std::vector<schema::AccessStep> witness_steps_;
  size_t paths_ = 0;
  bool found_ = false;
  bool exhausted_ = false;
};

}  // namespace

OracleResult OracleDecide(const acc::AccPtr& formula,
                          const schema::Schema& schema,
                          const OracleOptions& options) {
  return OracleDecide(formula, schema, schema::Instance(schema), options);
}

OracleResult OracleDecide(const acc::AccPtr& formula,
                          const schema::Schema& schema,
                          const schema::Instance& initial,
                          const OracleOptions& options) {
  PathEnumerator e(formula, schema, ToNaive(initial), options);
  return e.Run();
}

namespace {

std::string SerializeNaive(const NaiveInstance& inst) {
  std::string out;
  for (const auto& [rel, tuples] : inst) {
    if (tuples.empty()) continue;
    out += "#" + std::to_string(rel) + ":";
    for (const Tuple& t : tuples) out += TupleToString(t) + ";";
  }
  return out;
}

size_t NaiveTotalFacts(const NaiveInstance& inst) {
  size_t n = 0;
  for (const auto& [rel, tuples] : inst) {
    (void)rel;
    n += tuples.size();
  }
  return n;
}

/// Verbatim copy of lts.cc's AppendBoundedSubsets over plain tuples:
/// the bounded-method response enumeration must stay in lockstep with
/// the engine's for stat-for-stat agreement.
void AppendBoundedSubsets(const std::vector<Tuple>& matching, size_t max_size,
                          bool exact_size, size_t cap,
                          std::vector<std::vector<Tuple>>* responses) {
  if (max_size == 0) return;
  std::vector<Tuple> combo;
  std::function<void(size_t)> rec = [&](size_t start) {
    for (size_t i = start; i < matching.size() && responses->size() < cap;
         ++i) {
      combo.push_back(matching[i]);
      if (!exact_size || combo.size() == max_size) responses->push_back(combo);
      if (combo.size() < max_size) rec(i + 1);
      combo.pop_back();
    }
  };
  rec(0);
}

/// Naive mirror of lts.cc's SuccessorsImpl: same binding pools, the
/// same response policy, the same per-node cap — over plain tuple
/// sets. Returns the post configurations; `*transitions` counts every
/// enumerated transition (including ones leading to seen configs).
std::vector<NaiveInstance> NaiveSuccessors(const schema::Schema& schema,
                                           const NaiveInstance& current,
                                           const NaiveInstance& universe,
                                           const schema::LtsOptions& options,
                                           size_t* transitions) {
  std::vector<NaiveInstance> out;
  // Candidate binding values: the configuration's active domain plus
  // seeds, plus (non-grounded) every universe value.
  std::set<Value> pool_set;
  AddDomainValues(current, &pool_set);
  for (const Value& v : options.seed_values) pool_set.insert(v);
  if (!options.grounded) AddDomainValues(universe, &pool_set);
  std::vector<Value> pool(pool_set.begin(), pool_set.end());

  for (schema::AccessMethodId am = 0; am < schema.num_access_methods();
       ++am) {
    const schema::AccessMethod& m = schema.method(am);
    const schema::Relation& rel = schema.relation(m.relation);
    std::vector<std::vector<Value>> binding_pools(
        static_cast<size_t>(m.num_inputs()));
    bool empty_pool = false;
    for (int i = 0; i < m.num_inputs(); ++i) {
      ValueType want = rel.position_types[m.input_positions[i]];
      for (const Value& v : pool) {
        if (v.type() == want) {
          binding_pools[static_cast<size_t>(i)].push_back(v);
        }
      }
      if (binding_pools[static_cast<size_t>(i)].empty()) empty_pool = true;
    }
    if (empty_pool && m.num_inputs() > 0) continue;
    std::vector<Tuple> bindings;
    bool ignored = false;
    EnumerateTuples(binding_pools, ~size_t{0}, &ignored, &bindings);

    for (const Tuple& binding : bindings) {
      // Matching universe tuples (the hidden database bounds the
      // branching, exactly as LtsOptions documents).
      std::vector<Tuple> matching;
      auto it = universe.find(m.relation);
      if (it != universe.end()) {
        for (const Tuple& t : it->second) {
          bool match = true;
          for (int i = 0; i < m.num_inputs(); ++i) {
            if (t[static_cast<size_t>(m.input_positions[i])] !=
                binding[static_cast<size_t>(i)]) {
              match = false;
              break;
            }
          }
          if (match) matching.push_back(t);
        }
      }
      bool exact = m.exact || options.exact_methods.count(am) > 0;
      std::vector<std::vector<Tuple>> responses;
      if (m.bounded()) {
        // Verbatim mirror of lts.cc's bounded response rule: every
        // <=k-subset (exact: exactly min(k, |matching|)-subsets), in
        // the same lexicographic enumeration order.
        size_t bound = static_cast<size_t>(m.result_bound);
        if (exact) {
          size_t take = std::min(bound, matching.size());
          if (take == 0) {
            responses.push_back({});
          } else {
            AppendBoundedSubsets(matching, take, /*exact_size=*/true,
                                 options.max_successors_per_node, &responses);
          }
        } else {
          responses.push_back({});
          AppendBoundedSubsets(matching, bound, /*exact_size=*/false,
                               options.max_successors_per_node, &responses);
        }
      } else if (exact) {
        responses.push_back(matching);
      } else {
        responses.push_back({});
        if (options.enumerate_singleton_responses) {
          for (const Tuple& t : matching) responses.push_back({t});
          if (matching.size() > 1) responses.push_back(matching);
        } else if (!matching.empty()) {
          responses.push_back(matching);
        }
      }
      for (const std::vector<Tuple>& r : responses) {
        NaiveInstance post = current;
        std::set<Tuple>& target = post[m.relation];
        for (const Tuple& t : r) target.insert(t);
        out.push_back(std::move(post));
        ++*transitions;
        if (out.size() >= options.max_successors_per_node) return out;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<OracleLevelStats> OracleExploreLts(
    const schema::Schema& schema, const schema::Instance& initial,
    const schema::LtsOptions& options, size_t max_depth, size_t max_nodes) {
  std::vector<OracleLevelStats> stats;
  NaiveInstance start = ToNaive(initial);
  {
    OracleLevelStats s;
    s.depth = 0;
    s.distinct_configurations = 1;
    s.max_configuration_facts = NaiveTotalFacts(start);
    stats.push_back(s);
  }
  if (max_depth == 0) return stats;

  NaiveInstance universe = ToNaive(options.universe);
  std::set<std::string> visited;
  visited.insert(SerializeNaive(start));
  size_t seen_count = 1;

  std::vector<NaiveInstance> frontier;
  frontier.push_back(std::move(start));
  for (size_t level = 1; !frontier.empty(); ++level) {
    OracleLevelStats s;
    s.depth = level;
    std::vector<NaiveInstance> children;
    for (const NaiveInstance& node : frontier) {
      std::vector<NaiveInstance> succ =
          NaiveSuccessors(schema, node, universe, options, &s.transitions);
      for (NaiveInstance& child : succ) children.push_back(std::move(child));
    }
    // Count-then-cut, mirroring the engine's level-granular budget: the
    // whole level is expanded and counted; the overflow is dropped and
    // flagged, never silently complete-looking.
    bool stop = false;
    std::vector<NaiveInstance> next;
    for (NaiveInstance& child : children) {
      std::string key = SerializeNaive(child);
      if (!visited.insert(std::move(key)).second) continue;
      ++seen_count;
      if (seen_count > max_nodes) {
        s.truncated = true;
        stop = true;
        break;
      }
      s.max_configuration_facts =
          std::max(s.max_configuration_facts, NaiveTotalFacts(child));
      next.push_back(std::move(child));
    }
    s.distinct_configurations = next.size();
    stats.push_back(s);
    if (stop || level >= max_depth) break;
    frontier = std::move(next);
  }
  return stats;
}

}  // namespace oracle
}  // namespace accltl
