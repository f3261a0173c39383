#include "src/service/semantic_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/accltl/semantics.h"
#include "src/logic/containment.h"
#include "src/obs/metrics.h"
#include "src/schema/instance.h"
#include "src/service/analysis_service.h"

namespace accltl {
namespace service {

namespace {

/// Semantic-tier instruments (write-only; DESIGN.md §8/§9). The
/// candidate histogram and probe clock record only under
/// obs::MetricsEnabled(), preserving the no-perturbation contract.
struct SemanticMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* inserts;
  obs::Counter* evictions;
  obs::Counter* transfer_renamed;
  obs::Counter* transfer_equivalent;
  obs::Counter* transfer_containment;
  obs::Counter* rejected_unsound;
  obs::Gauge* entries;
  obs::Histogram* candidates;
  obs::Histogram* lookup_us;
  static const SemanticMetrics& Get() {
    obs::Registry& r = obs::Registry::Get();
    static const SemanticMetrics m{
        r.counter("service.semantic.hits"),
        r.counter("service.semantic.misses"),
        r.counter("service.semantic.inserts"),
        r.counter("service.semantic.evictions"),
        r.counter("service.semantic.transfer.renamed"),
        r.counter("service.semantic.transfer.equivalent"),
        r.counter("service.semantic.transfer.containment"),
        r.counter("service.semantic.rejected_unsound"),
        r.gauge("service.semantic.entries"),
        r.histogram("service.semantic.candidates"),
        r.histogram("service.semantic.lookup_us"),
    };
    return m;
  }
};

/// Tractability caps for the per-lookup containment reasoning: the
/// semantic tier must stay cheap relative to a search, so anything
/// larger falls through to the engine instead of grinding the exact
/// (exponential) checkers.
constexpr size_t kMaxAtomPairs = 16;
constexpr size_t kMaxDisjuncts = 64;
constexpr size_t kMaxVarsNeqFree = 12;
constexpr size_t kMaxVarsWithNeq = 6;

/// One structurally parallel pair of atom sentences plus the polarity
/// of their shared skeleton position (¬ flips it; ∧, ∨, X and both
/// operands of U are monotone).
struct AtomPair {
  logic::PosFormulaPtr donor;
  logic::PosFormulaPtr query;
  bool positive;
};

/// Walks both skeletons in lockstep; false when the shapes differ
/// (different operator kinds or child counts), in which case no
/// pointwise transfer argument applies.
bool CollectAtomPairs(const acc::AccPtr& d, const acc::AccPtr& q,
                      bool positive, std::vector<AtomPair>* out) {
  if (d->kind() != q->kind()) return false;
  switch (d->kind()) {
    case acc::AccKind::kAtom:
      out->push_back(AtomPair{d->sentence(), q->sentence(), positive});
      return true;
    case acc::AccKind::kNot:
      return CollectAtomPairs(d->child(), q->child(), !positive, out);
    case acc::AccKind::kNext:
      return CollectAtomPairs(d->child(), q->child(), positive, out);
    case acc::AccKind::kUntil:
      return CollectAtomPairs(d->lhs(), q->lhs(), positive, out) &&
             CollectAtomPairs(d->rhs(), q->rhs(), positive, out);
    case acc::AccKind::kAnd:
    case acc::AccKind::kOr: {
      if (d->children().size() != q->children().size()) return false;
      for (size_t i = 0; i < d->children().size(); ++i) {
        if (!CollectAtomPairs(d->children()[i], q->children()[i], positive,
                              out)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

size_t CountBoundVars(const logic::PosFormulaPtr& f) {
  switch (f->kind()) {
    case logic::NodeKind::kExists: {
      return f->bound_vars().size() + CountBoundVars(f->body());
    }
    case logic::NodeKind::kAnd:
    case logic::NodeKind::kOr: {
      size_t n = 0;
      for (const logic::PosFormulaPtr& c : f->children()) {
        n += CountBoundVars(c);
      }
      return n;
    }
    default:
      return 0;
  }
}

/// Is the exact containment check affordable for this pair? Klug's
/// identification enumeration (triggered by ≠) is exponential in the
/// left-hand variables, the ≠-free homomorphism test merely
/// exponential in the worst case — different caps.
bool ContainmentTractable(const logic::PosFormulaPtr& lhs,
                          const logic::PosFormulaPtr& rhs) {
  size_t cap = (lhs->UsesInequality() || rhs->UsesInequality())
                   ? kMaxVarsWithNeq
                   : kMaxVarsNeqFree;
  return CountBoundVars(lhs) <= cap && CountBoundVars(rhs) <= cap;
}

/// lhs ⊆ rhs established? Any error or cap overflow counts as "not
/// established" — the tier falls through rather than guessing.
bool ContainedSurely(const logic::PosFormulaPtr& lhs,
                     const logic::PosFormulaPtr& rhs,
                     const schema::Schema& schema) {
  if (logic::PosFormula::Equal(lhs, rhs)) return true;
  if (!ContainmentTractable(lhs, rhs)) return false;
  Result<bool> c = logic::SentenceContained(lhs, rhs, schema, kMaxDisjuncts);
  return c.ok() && c.value();
}

/// Does the donor's witness path genuinely satisfy the query's
/// formula? The final soundness gate on every kYes transfer: even
/// when the containment argument is airtight this re-validation runs,
/// so an implementation bug above degrades to a cache miss, never to
/// a wrong answer.
bool WitnessTransfers(const SemanticCache::Donor& d, const PreparedQuery& q) {
  const analysis::Decision& dd = d.response.decision;
  if (!dd.has_witness) return false;
  if (!dd.witness.Validate(q.schema()).ok()) return false;
  return acc::EvalOnPath(q.formula(), q.schema(), dd.witness,
                         schema::Instance(q.schema()));
}

/// The transferred response: the donor's verdict and execution
/// statistics (nodes, visited bytes — they describe the donor's
/// search) with the query's own fragment classification.
CheckResponse BuildTransfer(const SemanticCache::Donor& d,
                            const PreparedQuery& q) {
  CheckResponse resp = d.response;
  resp.decision.fragment = q.fragment();
  resp.decision.uses_inequality = q.uses_inequality();
  resp.cache_hit = false;
  return resp;
}

}  // namespace

SemanticCache::SemanticCache(size_t capacity) : capacity_(capacity) {}

void SemanticCache::Admit(const PreparedQuery& query,
                          const CheckResponse& response) {
  Donor donor;
  donor.key = query.semantic_key();
  donor.syntactic_key = query.cache_key();
  donor.schema = std::make_shared<const schema::Schema>(query.schema());
  donor.formula = query.formula();
  donor.zero_routed = query.zero_routed();
  donor.response = response;
  donor.response.cache_hit = false;
  donor.response.source = AnswerSource::kEngine;
  donor.response.provenance = "engine";
  AdmitDonor(std::move(donor));
}

void SemanticCache::AdmitDonor(Donor d) {
  if (capacity_ == 0) return;
  auto donor = std::make_shared<Donor>(std::move(d));
  const SemanticMetrics& metrics = SemanticMetrics::Get();
  // Declared before the lock: an evicted donor is destroyed after the
  // lock is released, keeping its teardown off the critical section.
  std::shared_ptr<const Donor> victim;
  std::lock_guard<std::mutex> lock(mu_);
  if (!keys_.insert(donor->syntactic_key).second) return;
  index_[donor->key.fingerprint].push_back(donor);
  order_.push_back(std::move(donor));
  ++inserts_;
  metrics.inserts->Inc();
  metrics.entries->Add(1);
  if (order_.size() > capacity_) victim = EvictOldestLocked();
}

std::shared_ptr<const SemanticCache::Donor>
SemanticCache::EvictOldestLocked() {
  std::shared_ptr<const Donor> victim = std::move(order_.front());
  order_.pop_front();
  keys_.erase(victim->syntactic_key);
  auto it = index_.find(victim->key.fingerprint);
  if (it != index_.end()) {
    auto& bucket = it->second;
    bucket.erase(std::find(bucket.begin(), bucket.end(), victim));
    if (bucket.empty()) index_.erase(it);
  }
  ++evictions_;
  const SemanticMetrics& metrics = SemanticMetrics::Get();
  metrics.evictions->Inc();
  metrics.entries->Add(-1);
  return victim;
}

std::vector<std::shared_ptr<const SemanticCache::Donor>>
SemanticCache::Candidates(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fingerprint);
  if (it == index_.end()) return {};
  return it->second;
}

bool SemanticCache::Lookup(const PreparedQuery& query, CheckResponse* out) {
  const SemanticMetrics& metrics = SemanticMetrics::Get();
  const SemanticKey& qk = query.semantic_key();
  auto served = [&](const char* rule, obs::Counter* rule_counter) {
    out->source = AnswerSource::kSemanticCache;
    out->provenance = std::string("semantic-cache rule=") + rule;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++hits_;
    }
    metrics.hits->Inc();
    rule_counter->Inc();
  };

  std::vector<std::shared_ptr<const Donor>> candidates;
  if (obs::MetricsEnabled()) {
    auto t0 = std::chrono::steady_clock::now();
    candidates = Candidates(qk.fingerprint);
    metrics.lookup_us->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    metrics.candidates->Record(candidates.size());
  } else {
    candidates = Candidates(qk.fingerprint);
  }

  for (const std::shared_ptr<const Donor>& donor : candidates) {
    // Fingerprints filter; texts decide. Options and schema signature
    // must match byte-for-byte before any transfer rule applies.
    if (donor->key.options_text != qk.options_text) continue;
    if (donor->key.schema_text != qk.schema_text) continue;

    const analysis::Answer answer = donor->response.decision.satisfiable;

    // Rule 1: byte-equal canonical formula text — the requests differ
    // only in relation/method names, invisible to the engines.
    if (donor->key.formula_text == qk.formula_text) {
      *out = donor->response;
      out->cache_hit = false;
      served("renamed", metrics.transfer_renamed);
      return true;
    }

    if (answer == analysis::Answer::kUnknown) continue;

    std::vector<AtomPair> pairs;
    if (!CollectAtomPairs(donor->formula, query.formula(), true, &pairs)) {
      continue;
    }
    if (pairs.size() > kMaxAtomPairs) continue;
    const schema::Schema& schema = query.schema();

    // Rule 2: every parallel atom pair equivalent up to a bijective
    // variable renaming.
    bool equivalent = true;
    for (const AtomPair& p : pairs) {
      if (logic::PosFormula::Equal(p.donor, p.query)) continue;
      Result<bool> eq = logic::SentenceEquivalentUpToRenaming(
          p.donor, p.query, schema, nullptr, kMaxDisjuncts);
      if (!eq.ok() || !eq.value()) {
        equivalent = false;
        break;
      }
    }
    if (equivalent) {
      if (answer == analysis::Answer::kYes) {
        if (!WitnessTransfers(*donor, query)) {
          metrics.rejected_unsound->Inc();
          continue;
        }
      } else if (!(donor->zero_routed && query.zero_routed())) {
        // kNo is relative to the search bounds; only the complete
        // zero-ary engine under byte-equal options makes it portable.
        continue;
      }
      *out = BuildTransfer(*donor, query);
      served("equivalent", metrics.transfer_equivalent);
      return true;
    }

    // Rule 3: directional containment over the shared skeleton.
    if (answer == analysis::Answer::kYes) {
      // Donor ⇒ query pointwise: donor's witness path satisfies the
      // query too.
      bool implies = true;
      for (const AtomPair& p : pairs) {
        implies = p.positive ? ContainedSurely(p.donor, p.query, schema)
                             : ContainedSurely(p.query, p.donor, schema);
        if (!implies) break;
      }
      if (!implies) continue;
      if (!WitnessTransfers(*donor, query)) {
        metrics.rejected_unsound->Inc();
        continue;
      }
      *out = BuildTransfer(*donor, query);
      served("containment", metrics.transfer_containment);
      return true;
    }
    // answer == kNo: query ⇒ donor pointwise, so any query witness
    // would witness the donor; the donor's exhaustive bounded search
    // found none. Sound only between zero-routed queries (complete
    // within the shared, byte-equal bounds).
    if (!(donor->zero_routed && query.zero_routed())) continue;
    bool implies = true;
    for (const AtomPair& p : pairs) {
      implies = p.positive ? ContainedSurely(p.query, p.donor, schema)
                           : ContainedSurely(p.donor, p.query, schema);
      if (!implies) break;
    }
    if (!implies) continue;
    *out = BuildTransfer(*donor, query);
    served("containment", metrics.transfer_containment);
    return true;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
  }
  metrics.misses->Inc();
  return false;
}

SemanticCache::Stats SemanticCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.entries = order_.size();
  s.hits = hits_;
  s.misses = misses_;
  s.inserts = inserts_;
  s.evictions = evictions_;
  return s;
}

bool SemanticCacheResolver::Resolve(const PreparedQuery& query,
                                    const ResolveContext& ctx,
                                    CheckResponse* out) {
  if (ctx.request == nullptr || !ctx.request->use_cache) return false;
  return cache_->Lookup(query, out);
}

void SemanticCacheResolver::Admit(const PreparedQuery& query,
                                  const ResolveContext& ctx,
                                  const CheckResponse& response) {
  if (ctx.request == nullptr || !ctx.request->use_cache) return;
  // Only engine-resolved answers become donors: a transferred or
  // replayed response's statistics already describe some donor's
  // execution, and re-admitting it would only duplicate entries.
  if (response.source != AnswerSource::kEngine) return;
  if (!TransferableResponse(response)) return;
  cache_->Admit(query, response);
}

}  // namespace service
}  // namespace accltl
