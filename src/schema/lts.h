#ifndef ACCLTL_SCHEMA_LTS_H_
#define ACCLTL_SCHEMA_LTS_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/engine/cancel.h"
#include "src/schema/access.h"
#include "src/schema/instance.h"
#include "src/schema/schema.h"

namespace accltl {
namespace schema {

/// One transition (I, (AcM, b̄), I′) of the labelled transition system a
/// schema induces (§2, Figure 1). `post` always equals `pre` plus the
/// response tuples added to the accessed relation.
struct Transition {
  Instance pre;
  Access access;
  Response response;
  Instance post;
  /// The response as interned fact ids (same set as `response`), kept
  /// from construction: delta-encoded successor generation extends a
  /// parent's tree-compressed relation set by exactly these ids
  /// instead of re-encoding `post` (see store/treedb.h).
  std::vector<store::FactId> response_ids;

  std::string ToString(const Schema& schema) const;
};

/// Builds the transition that performs `access` with `response` from
/// instance `pre`. `post` shares every untouched relation with `pre`
/// (copy-on-write).
Transition MakeTransition(const Schema& schema, Instance pre, Access access,
                          Response response);

/// Interned-id variant: the response is given as fact ids (the tuple
/// set is decoded from them), so building `post` never re-hashes tuple
/// data. The single owner of the post = pre + response invariant —
/// the tuple-based overload and all search engines delegate here.
Transition MakeTransitionFromIds(const Schema& schema, Instance pre,
                                 Access access,
                                 const std::vector<store::FactId>& response);

/// The accessed relation's post fact ids of the transition that
/// MakeTransitionFromIds(schema, pre, access on `rel`, response) would
/// build — the sorted union of `pre`'s ids for `rel` and `response`
/// (any order, duplicates allowed) — written to `*out` without
/// building `post`. `*sorted_response` is scratch. Both buffers keep
/// their capacity across calls, so testing a candidate on a
/// logic::TransitionView allocates nothing once they have grown.
void CandidatePostIds(const Instance& pre, RelationId rel,
                      const std::vector<store::FactId>& response,
                      std::vector<store::FactId>* sorted_response,
                      std::vector<store::FactId>* out);

/// Options controlling how the (infinite) LTS is enumerated.
struct LtsOptions {
  /// Hidden database: responses are subsets of its matching tuples. The
  /// LTS of §2 allows *any* well-formed response; fixing a hidden
  /// universe is how benchmarks and the CTL semantics bound the branching.
  Instance universe;
  /// Only grounded accesses (binding values drawn from the current
  /// configuration's active domain plus `seed_values`).
  bool grounded = false;
  /// Extra values available for bindings even when grounded (the
  /// "initially known" constants, e.g. "Smith" in Figure 1).
  std::vector<Value> seed_values;
  /// Methods forced to be exact: their response is always the full
  /// matching set of `universe`.
  std::set<AccessMethodId> exact_methods;
  /// When a method is not exact, how many response subsets to enumerate:
  /// always the full matching set and the empty set; additionally all
  /// singletons when true. (Full powerset enumeration is exponential and
  /// never needed by our analyses.)
  bool enumerate_singleton_responses = true;
  /// Cap on the number of successor transitions generated per node.
  size_t max_successors_per_node = 1u << 20;
};

/// Enumerates successor transitions of configuration `current` under the
/// options. Deterministic order (methods, then bindings, then responses).
std::vector<Transition> Successors(const Schema& schema,
                                   const Instance& current,
                                   const LtsOptions& options);

/// Statistics of the tree of paths of Figure 1, per level.
struct LtsLevelStats {
  size_t depth = 0;
  /// Number of distinct configurations first reached at this depth.
  size_t distinct_configurations = 0;
  /// Number of transitions explored from nodes at the previous depth.
  size_t transitions = 0;
  /// Largest configuration (fact count) seen at this depth.
  size_t max_configuration_facts = 0;
  /// True when the `max_nodes` budget cut this level: configurations
  /// first reached here were dropped (and the exploration stopped), so
  /// the recorded tree is a prefix — never silently complete-looking.
  bool truncated = false;
  /// True on the last recorded level when `exec.cancel` fired and cut
  /// the exploration there: every level at or past the cut is missing
  /// or partial, so the recorded tree is a prefix.
  bool cancelled = false;
};

/// Memory footprint of one ExploreBreadthFirst run, reported through
/// the optional out-parameter (kept out of LtsLevelStats: the level
/// statistics are compared across engines/modes by the differential
/// fuzzer, and bytes are a storage property, not a tree property).
struct LtsMemoryStats {
  /// Logical bytes held live by the seen-set at the end of the
  /// exploration (plus the treedb arena under VisitedMode::kCompact).
  /// Deterministic whenever the statistics are.
  size_t visited_bytes = 0;
  /// Interned tree nodes (kCompact only; 0 under kExact).
  size_t treedb_nodes = 0;
};

/// Breadth-first exploration of the LTS up to `max_depth`, deduplicating
/// configurations. Reproduces the shape of Figure 1's tree.
///
/// Runs on the parallel exploration engine when
/// `exec.num_threads > 1` (engine/cancel.h is the single source of
/// worker count and cancellation): whole levels are expanded through
/// the work-stealing deques and reduced deterministically at the
/// barrier, so every statistic (including the budget cut) is
/// byte-identical at any worker count; a cancel token that never
/// fires never changes any statistic. The budget follows the
/// engine's count-then-cut discipline at level granularity: the level
/// that exceeds `max_nodes` is fully expanded and counted, the
/// overflowing configurations are dropped in deterministic content
/// order, the level is flagged `truncated`, and the exploration stops.
/// A fired cancel token stops the exploration at node granularity and
/// flags the last recorded level `cancelled`.
/// `exec.visited_mode` selects the seen-set storage: kExact keeps one
/// Instance handle per distinct configuration; kCompact folds each
/// configuration into a store::TreeDb and keeps a 4-byte ref
/// (successors are delta-extended from the parent's per-relation set
/// refs). The statistics are identical in both modes — ref equality is
/// exact configuration equality. `exec.max_visited_bytes` cuts the
/// exploration at the level barrier (flagged `truncated`), letting a
/// fixed-RAM sweep stop cleanly. `memory`, when non-null, receives the
/// run's footprint.
std::vector<LtsLevelStats> ExploreBreadthFirst(
    const Schema& schema, const Instance& initial, const LtsOptions& options,
    size_t max_depth, size_t max_nodes = 100000,
    const engine::ExecOptions& exec = {}, LtsMemoryStats* memory = nullptr);

}  // namespace schema
}  // namespace accltl

#endif  // ACCLTL_SCHEMA_LTS_H_
