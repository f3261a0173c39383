#ifndef ACCLTL_SERVICE_SEMANTIC_CACHE_H_
#define ACCLTL_SERVICE_SEMANTIC_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/accltl/formula.h"
#include "src/schema/schema.h"
#include "src/service/answer_pipeline.h"
#include "src/service/canonical.h"

namespace accltl {
namespace service {

/// The containment-based semantic cache: the middle tier of the answer
/// pipeline. It stores *donors* — engine-resolved, transferable
/// responses together with the prepared state needed to reason about
/// them — indexed by the SemanticKey fingerprint (schema signature +
/// query shape), so candidate lookup is one hash probe whatever the
/// cache holds.
///
/// Verdict-transfer rules, from cheapest to most general (anything
/// uncertain falls through to the engine tier):
///
///  1. `renamed`  — the donor's and the query's canonical texts
///     (name-canonicalized schema, formula, options) are byte-equal:
///     the two requests differ only in relation/method *names*, which
///     every engine ignores (predicates are referenced by id). The
///     donor's full response transfers byte-for-byte.
///  2. `equivalent` — every atom sentence pair (donor vs. query, at
///     structurally parallel skeleton positions) is equivalent up to a
///     bijective variable renaming (logic::SentenceEquivalentUpToRenaming,
///     the renaming-witness form). Satisfiable verdicts transfer with
///     the donor's witness, re-validated against the query before
///     release; unsatisfiable verdicts transfer only between
///     zero-routed queries (the complete engine, same bounds).
///  3. `containment` — directional: the donor formula implies the
///     query formula pointwise over the shared temporal skeleton
///     (positive-polarity atoms checked with logic::SentenceContained
///     donor ⊆ query, negative-polarity reversed), so a donor kYes
///     transfers (with the witness re-validated); or the query implies
///     the donor, so a zero-routed donor kNo transfers to a
///     zero-routed query (no witness within the shared length bound).
///
/// Never transferred: kUnknown answers, budget-exhausted, cancelled or
/// deadline-cut responses (donors are admitted through
/// TransferableResponse, and an unknown answer carries no information
/// to transfer). Candidacy always requires byte-equal canonical option
/// and schema texts — execution context (threads, deadlines,
/// visited-set mode) is not part of the key because it never changes
/// answers.
class SemanticCache {
 public:
  /// A cached donor. Owns deep copies (schema included) so it never
  /// dangles when the PreparedQuery that produced it dies.
  struct Donor {
    SemanticKey key;
    /// The donor's syntactic cache key, for dedup and provenance.
    std::string syntactic_key;
    std::shared_ptr<const schema::Schema> schema;
    acc::AccPtr formula;
    bool zero_routed = false;
    CheckResponse response;
  };

  /// One-lock snapshot of the cache's counters (mirrors
  /// LruCache::Stats; the obs `service.semantic.*` instruments are
  /// incremented at the same call sites).
  struct Stats {
    size_t entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
  };

  /// Capacity in donor entries; 0 disables the cache (lookups miss,
  /// admissions drop), mirroring LruCache.
  explicit SemanticCache(size_t capacity);

  SemanticCache(const SemanticCache&) = delete;
  SemanticCache& operator=(const SemanticCache&) = delete;

  /// Registers an engine-resolved, transferable response as a donor.
  /// The caller guarantees TransferableResponse(response); responses
  /// already present (same syntactic key) are dropped — engine answers
  /// are deterministic, so first-in wins.
  void Admit(const PreparedQuery& query, const CheckResponse& response);

  /// The underlying insertion, exposed for the index micro-bench
  /// (bench_service populates synthetic donors without a service).
  void AdmitDonor(Donor donor);

  /// Attempts a verdict transfer for `query`. On success fills `*out`
  /// (source = kSemanticCache, provenance names the rule) and returns
  /// true; on a miss or any uncertainty returns false and the request
  /// falls through.
  bool Lookup(const PreparedQuery& query, CheckResponse* out);

  /// The index probe, exposed for the sub-microsecond micro-bench:
  /// donors sharing `fingerprint`, oldest first.
  std::vector<std::shared_ptr<const Donor>> Candidates(
      uint64_t fingerprint) const;

  Stats stats() const;

 private:
  /// Unlinks the oldest donor and returns it, so the caller releases
  /// it (schema, formula AST, response, key strings) after unlocking.
  std::shared_ptr<const Donor> EvictOldestLocked();

  mutable std::mutex mu_;
  size_t capacity_;
  /// Insertion order (oldest front) for FIFO eviction: donors are
  /// immutable facts about the engines, so recency carries no signal
  /// worth the bookkeeping of a full LRU here.
  std::list<std::shared_ptr<const Donor>> order_;
  std::unordered_map<uint64_t, std::vector<std::shared_ptr<const Donor>>>
      index_;
  std::unordered_set<std::string> keys_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t inserts_ = 0;
  uint64_t evictions_ = 0;
};

/// The pipeline tier wrapping a SemanticCache. Resolve = Lookup;
/// Admit registers engine-resolved transferable responses as donors
/// (semantic- and syntactic-tier responses are never re-admitted:
/// their statistics already describe some donor's execution).
class SemanticCacheResolver : public AnswerResolver {
 public:
  explicit SemanticCacheResolver(SemanticCache* cache) : cache_(cache) {}

  const char* name() const override { return "semantic-cache"; }
  bool Resolve(const PreparedQuery& query, const ResolveContext& ctx,
               CheckResponse* out) override;
  void Admit(const PreparedQuery& query, const ResolveContext& ctx,
             const CheckResponse& response) override;

 private:
  SemanticCache* cache_;
};

}  // namespace service
}  // namespace accltl

#endif  // ACCLTL_SERVICE_SEMANTIC_CACHE_H_
