// Workload inputs: generated once per seed as text (schema text,
// formula ToString text, instance text, step lines) and read back from
// that text, so both sides of an A/B read the same bytes.

#ifndef PERFBENCH_HARNESS_INPUTS_H_
#define PERFBENCH_HARNESS_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One check request of small_checks / repeat_checks.
struct CheckItem {
  std::string schema_text;
  std::string formula_text;
  /// The same request against a schema whose relations and methods are
  /// renamed (repeat_checks only; empty otherwise).
  std::string renamed_schema_text;
  std::string renamed_formula_text;
  bool shrink = false;
};

/// One heavy op: a satisfiability check or an LTS exploration.
struct HeavyItem {
  std::string name;
  bool lts = false;
  std::string schema_text;
  std::string formula_text;  // check
  int max_path_length = 3;   // check: bounded and zero-ary path bound
  /// LTS: the hidden universe. Check: when set, the initial instance;
  /// the check then runs the automata witness search directly, since
  /// the service checks from the empty instance only.
  std::string universe_text;
  int depth = 2;              // lts
  std::string seed_value;     // lts: a string value bindings may use
};

struct SessionFormula {
  size_t schema = 0;
  std::string formula_text;
};
struct SessionStream {
  size_t formula = 0;
  std::vector<std::string> steps;  // step lines
};

struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  std::vector<CheckItem> checks;
  std::vector<HeavyItem> heavy;
  std::vector<std::string> session_schemas;  // schema texts
  std::vector<SessionFormula> session_formulas;
  std::vector<SessionStream> sessions;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Draws the inputs of `workload` for `seed` from src/workload's
/// generators and renders them as text.
std::string GenerateInputText(const std::string& workload, uint64_t seed);

/// Reads inputs back from text; false (with `*err`) when malformed.
bool ParseInputText(const std::string& text, Inputs* out, std::string* err);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INPUTS_H_
