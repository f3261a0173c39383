#include "src/logic/eval.h"

#include <cassert>
#include <type_traits>

#include "src/store/fact_store.h"

namespace accltl {
namespace logic {

namespace {

/// Non-owning reference to a `bool()` continuation: invoked when the
/// current subgoal is satisfied; returns true to stop the search
/// (overall success), false to keep enumerating. The referenced
/// callable lives in a caller's frame, which outlives every call.
class ContRef {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, ContRef>>>
  ContRef(const F& f)  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_([](const void* o) {
          return (*static_cast<const F*>(o))();
        }) {}

  bool operator()() const { return call_(obj_); }

 private:
  const void* obj_;
  bool (*call_)(const void*);
};

/// One entry of the binding stack: `var` is bound to `*value`, or
/// shadowed (unbound in this scope) when `value` is null. Values point
/// into the store, set-mode tuples, a Term's constant or the caller's
/// Env — all outlive the evaluation, so nothing is copied.
struct Binding {
  const std::string* var;
  const Value* value;
};

/// The backtracking join over a binding stack. A lookup scans the
/// stack from the top; backtracking truncates it. The stack is a
/// per-thread buffer reused across calls (a nested evaluation works
/// above the caller's entries and never sees them), so evaluating a
/// sentence allocates nothing once the buffer has grown.
class Evaluator {
 public:
  explicit Evaluator(const StructureView& view)
      : view_(view), stack_(Stack()), base_(stack_.size()) {}
  ~Evaluator() { stack_.resize(base_); }

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  void Bind(const std::string& var, const Value& value) {
    stack_.push_back({&var, &value});
  }

  /// The value `var` is bound to, or null when it is unbound.
  const Value* Lookup(const std::string& var) const {
    for (size_t i = stack_.size(); i-- > base_;) {
      const Binding& b = stack_[i];
      if (b.var == &var || *b.var == var) return b.value;
    }
    return nullptr;
  }

  const Value* Lookup(const Term& t) const {
    return t.is_const() ? &t.value() : Lookup(t.var_name());
  }

  bool Eval(const PosFormula* f, ContRef k) {
    switch (f->kind()) {
      case NodeKind::kTrue:
        return k();
      case NodeKind::kFalse:
        return false;
      case NodeKind::kAtom:
        return EvalAtom(f, k);
      case NodeKind::kEq:
        return EvalEq(f, k);
      case NodeKind::kNeq:
        return EvalNeq(f, k);
      case NodeKind::kAnd:
        return EvalAnd(f->children(), Phase::kOther, 0, k);
      case NodeKind::kOr: {
        for (const PosFormulaPtr& c : f->children()) {
          if (Eval(c.get(), k)) return true;
        }
        return false;
      }
      case NodeKind::kExists:
        return EvalExists(f, k);
    }
    return false;
  }

 private:
  static std::vector<Binding>& Stack() {
    thread_local std::vector<Binding> stack;
    return stack;
  }

  /// Shadows the quantified variables for the body; the body's
  /// witnesses leave scope before `k` runs, which sees the outer
  /// bindings (or unboundness) of those variables again.
  bool EvalExists(const PosFormula* f, ContRef k) {
    const std::vector<std::string>& vars = f->bound_vars();
    size_t mark = stack_.size();
    for (const std::string& v : vars) stack_.push_back({&v, nullptr});
    auto after = [&]() -> bool {
      size_t top = stack_.size();
      for (const std::string& v : vars) {
        stack_.push_back({&v, LookupBelow(v, mark)});
      }
      bool stop = k();
      stack_.resize(top);
      return stop;
    };
    bool stop = Eval(f->body().get(), after);
    stack_.resize(mark);
    return stop;
  }

  const Value* LookupBelow(const std::string& var, size_t end) const {
    for (size_t i = end; i-- > base_;) {
      if (*stack_[i].var == var) return stack_[i].value;
    }
    return nullptr;
  }

  /// Matches one tuple against the atom's terms, binding its unbound
  /// variables for `k`.
  bool TryTuple(const std::vector<Term>& terms, const Tuple& tuple,
                ContRef k) {
    if (tuple.size() != terms.size()) return false;
    size_t mark = stack_.size();
    for (size_t i = 0; i < tuple.size(); ++i) {
      const Value* bound = Lookup(terms[i]);
      if (bound == nullptr) {
        stack_.push_back({&terms[i].var_name(), &tuple[i]});
      } else if (*bound != tuple[i]) {
        stack_.resize(mark);
        return false;
      }
    }
    bool stop = k();
    stack_.resize(mark);
    return stop;
  }

  bool EvalAtom(const PosFormula* f, ContRef k) {
    const PredicateRef& pred = f->pred();
    const std::vector<Term>& terms = f->terms();
    // 0-ary IsBind proposition (Sch0−Acc, §4.2): an IsBind atom written
    // with no terms for a method that has input positions.
    if (pred.space == PredSpace::kBind && terms.empty()) {
      bool holds = view_.MethodUsed(pred.id) ||
                   view_.GetTuples(pred).Contains(Tuple{});
      return holds ? k() : false;
    }
    // Indexed path: when some term is already fixed (a constant or a
    // bound variable) and the view serves a match index for this
    // predicate, enumerate only the tuples agreeing at that position.
    // Index order is fact-id (= GetTuples) order, and mismatching
    // tuples in the scan have no side effects, so both paths enumerate
    // identical matches in identical order.
    for (size_t i = 0; i < terms.size(); ++i) {
      const Value* bound = Lookup(terms[i]);
      if (bound == nullptr) continue;
      const store::Store& store = store::Store::Get();
      const std::vector<store::FactId>* ids = view_.FactIdIndex(
          pred, static_cast<int>(i), store.TryFindValue(*bound));
      if (ids == nullptr) break;  // no index for this predicate: scan
      for (store::FactId id : *ids) {
        if (TryTuple(terms, store.tuple(id), k)) return true;
      }
      return false;
    }
    for (const Tuple& tuple : view_.GetTuples(pred)) {
      if (TryTuple(terms, tuple, k)) return true;
    }
    return false;
  }

  bool EvalEq(const PosFormula* f, ContRef k) {
    const Value* l = Lookup(f->lhs());
    const Value* r = Lookup(f->rhs());
    if (l != nullptr && r != nullptr) return *l == *r ? k() : false;
    if (l == nullptr && r == nullptr) {
      // Both sides unbound: an unguarded equality. Formulas built by
      // this library are range-restricted, so this indicates misuse.
      assert(false && "equality over two unbound variables");
      return false;
    }
    // Propagate the bound side's value to the unbound variable.
    size_t mark = stack_.size();
    if (l == nullptr) {
      Bind(f->lhs().var_name(), *r);
    } else {
      Bind(f->rhs().var_name(), *l);
    }
    bool stop = k();
    stack_.resize(mark);
    return stop;
  }

  bool EvalNeq(const PosFormula* f, ContRef k) {
    const Value* l = Lookup(f->lhs());
    const Value* r = Lookup(f->rhs());
    assert(l != nullptr && r != nullptr &&
           "inequality over unbound variables");
    if (l == nullptr || r == nullptr) return false;
    return *l != *r ? k() : false;
  }

  /// The readiness order of a conjunction: every conjunct that is not
  /// an (in)equality (atoms and nested formulas) in written order,
  /// then the equalities, then the inequalities — so an (in)equality
  /// runs once its variables are bound.
  enum class Phase { kOther, kEq, kNeq, kDone };

  static Phase PhaseOf(const PosFormula* f) {
    switch (f->kind()) {
      case NodeKind::kEq:
        return Phase::kEq;
      case NodeKind::kNeq:
        return Phase::kNeq;
      default:
        return Phase::kOther;
    }
  }

  /// Runs the conjuncts from position (`phase`, `i`) of the readiness
  /// order onwards, walking `children` in place.
  bool EvalAnd(const std::vector<PosFormulaPtr>& children, Phase phase,
               size_t i, ContRef k) {
    for (; phase != Phase::kDone;
         phase = static_cast<Phase>(static_cast<int>(phase) + 1), i = 0) {
      for (; i < children.size(); ++i) {
        if (PhaseOf(children[i].get()) != phase) continue;
        auto rest = [&, phase, i]() -> bool {
          return EvalAnd(children, phase, i + 1, k);
        };
        return Eval(children[i].get(), rest);
      }
    }
    return k();
  }

  const StructureView& view_;
  std::vector<Binding>& stack_;
  const size_t base_;
};

/// The outermost continuation of a truth query: the first witness
/// settles it.
constexpr auto kSucceed = [] { return true; };

}  // namespace

bool EvalSentence(const PosFormulaPtr& f, const StructureView& view) {
  assert(f->IsSentence() && "EvalSentence requires a closed formula");
  Evaluator ev(view);
  return ev.Eval(f.get(), kSucceed);
}

bool EvalWithEnv(const PosFormulaPtr& f, const StructureView& view,
                 const Env& env) {
  Evaluator ev(view);
  for (const auto& [var, value] : env) ev.Bind(var, value);
  return ev.Eval(f.get(), kSucceed);
}

std::set<Tuple> EnumerateAnswers(const PosFormulaPtr& f,
                                 const std::vector<std::string>& head,
                                 const StructureView& view) {
  std::set<Tuple> answers;
  Evaluator ev(view);
  auto collect = [&]() -> bool {
    Tuple row;
    row.reserve(head.size());
    for (const std::string& v : head) {
      const Value* value = ev.Lookup(v);
      if (value == nullptr) return false;  // head var unbound: skip
      row.push_back(*value);
    }
    answers.insert(std::move(row));
    return false;  // keep enumerating
  };
  ev.Eval(f.get(), collect);
  return answers;
}

bool EvalOnInstance(const PosFormulaPtr& f,
                    const schema::Instance& instance) {
  InstanceView view(instance);
  return EvalSentence(f, view);
}

bool EvalOnTransition(const PosFormulaPtr& f, const schema::Transition& t) {
  TransitionView view(t);
  return EvalSentence(f, view);
}

}  // namespace logic
}  // namespace accltl
