#ifndef ACCLTL_LTL_SAT_H_
#define ACCLTL_LTL_SAT_H_

#include <cstddef>

#include "src/ltl/formula.h"

namespace accltl {
namespace ltl {

/// Result of a finite-word satisfiability check.
struct SatResult {
  bool satisfiable = false;
  /// A satisfying word (positions -> true propositions) when satisfiable.
  Word witness;
  /// Tableau states explored (for the complexity benchmarks).
  size_t states_explored = 0;
  /// True when the `max_states` cap or the expansion budget
  /// (kMaxTableauWork, tableau.h) was hit before an answer; the
  /// `satisfiable` field is then meaningless.
  bool resource_exhausted = false;
};

/// Satisfiability of propositional LTL over finite non-empty words, via
/// an on-the-fly tableau: states are sets of subformulas of the NNF
/// input, transitions are tableau expansions, acceptance is an
/// expansion with no strong-next obligation. PSPACE in theory (Thm 4.12
/// uses this as the target of its reduction), worst-case exponential
/// explicit search here, with witness extraction.
SatResult CheckSatFinite(const LtlPtr& f, size_t max_states = 1u << 22);

}  // namespace ltl
}  // namespace accltl

#endif  // ACCLTL_LTL_SAT_H_
