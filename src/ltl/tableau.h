#ifndef ACCLTL_LTL_TABLEAU_H_
#define ACCLTL_LTL_TABLEAU_H_

#include <set>
#include <vector>

#include "src/common/status.h"
#include "src/ltl/formula.h"

namespace accltl {
namespace ltl {

/// One edge of the tableau automaton: reading a letter that makes
/// `pos_lits` true and `neg_lits` false moves `from` to `to`; when
/// `may_end` the word may stop after this letter (no strong
/// obligations remain).
struct TableauEdge {
  int from = 0;
  std::set<int> pos_lits;
  std::set<int> neg_lits;
  int to = 0;
  bool may_end = false;
};

/// The finite-word tableau automaton of an LTL formula: an NFA whose
/// states are obligation sets (sets of NNF subformulas). A finite word
/// is accepted iff some run consumes it and its last edge has
/// `may_end`. This is the standard construction behind Thm 4.12's
/// PSPACE procedure and the Lemma 4.5 compilation.
struct TableauAutomaton {
  int initial = 0;
  int num_states = 0;
  std::vector<TableauEdge> edges;
};

/// Default cap on the tableau's expansion steps (one step per
/// obligation visited while enumerating a state's branches, summed over
/// all states). Alternating F/G nests blow up the branch enumeration
/// long before the state count: `F G` four times around one
/// proposition takes ~2^16 steps, five times ~2^21, six times ~2^26.
/// The cap is 10x the largest tableau the tests, benchmarks and fuzz
/// pairs build (~5·10^4 steps) and is spent in well under 0.1 s.
inline constexpr size_t kMaxTableauWork = size_t{1} << 19;

/// Builds the full reachable tableau automaton (worst-case exponential
/// in |f|). kResourceExhausted when it exceeds `max_states` states or
/// kMaxTableauWork expansion steps.
Result<TableauAutomaton> BuildTableau(const LtlPtr& f, size_t max_states);

}  // namespace ltl
}  // namespace accltl

#endif  // ACCLTL_LTL_TABLEAU_H_
