#ifndef ACCLTL_LOGIC_EVAL_H_
#define ACCLTL_LOGIC_EVAL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/logic/formula.h"
#include "src/logic/structure.h"

namespace accltl {
namespace logic {

/// A partial assignment of values to variables.
using Env = std::map<std::string, Value>;

/// Evaluates a sentence (closed formula) of FO∃+(≠) against a structure.
///
/// Evaluation is a backtracking join: atoms bind variables by iterating
/// the view's tuples; equalities propagate or test bindings;
/// inequalities test. Conjunctions run in readiness order: every
/// conjunct that is not an (in)equality in written order, then the
/// equalities, then the inequalities. Formulas whose every variable is
/// guarded by an atom — all formulas in this library — never get
/// stuck. Matches are enumerated in GetTuples (fact-id) order, or the
/// identical FactIdIndex order (see StructureView).
///
/// Scoping is lexical: `EXISTS x . φ` hides any outer binding of x
/// inside φ, and φ's witness for x is out of scope again for what
/// follows the quantifier in an enclosing conjunction.
///
/// Bindings live on a stack of (variable, value pointer) pairs whose
/// values point into the structure's tuples, the formula's constants or
/// the caller's Env, so a call performs no allocation beyond the
/// per-thread stack's growth (and EnumerateAnswers' result).
bool EvalSentence(const PosFormulaPtr& f, const StructureView& view);

/// Evaluates a formula with free variables pre-bound by `env`.
bool EvalWithEnv(const PosFormulaPtr& f, const StructureView& view,
                 const Env& env);

/// Enumerates the answers of an open formula: all assignments of
/// `head` (the answer variables, each free in `f`) that satisfy `f`.
std::set<Tuple> EnumerateAnswers(const PosFormulaPtr& f,
                                 const std::vector<std::string>& head,
                                 const StructureView& view);

/// Convenience: evaluates a boolean query over the kPlain vocabulary on
/// an instance.
bool EvalOnInstance(const PosFormulaPtr& f, const schema::Instance& instance);

/// Convenience: evaluates a SchAcc sentence on a transition (M(t), §2).
bool EvalOnTransition(const PosFormulaPtr& f, const schema::Transition& t);

}  // namespace logic
}  // namespace accltl

#endif  // ACCLTL_LOGIC_EVAL_H_
