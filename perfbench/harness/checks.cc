// small_checks and repeat_checks: one-shot check requests against one
// shared AnalysisService, each op being parse -> Prepare -> answer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <unordered_map>

#include "perfbench/harness/workloads.h"
#include "src/accltl/fragments.h"
#include "src/accltl/parser.h"
#include "src/analysis/decide.h"
#include "src/analysis/minimize.h"
#include "src/analysis/zero_solver.h"
#include "src/automata/compile.h"
#include "src/oracle/oracle.h"
#include "src/schema/text_format.h"
#include "src/service/analysis_service.h"
#include "src/service/canonical.h"

namespace perfbench {
namespace {

namespace acc = accltl::acc;
namespace analysis = accltl::analysis;
namespace schema = accltl::schema;
namespace svc = accltl::service;
using accltl::Result;

// Every check runs under the budgets that the differential fuzzer's
// service and semantic pairs send through Prepare and Check, with
// requests drawn from the same generators (ZeroOpts() and BoundedOpts()
// in src/testing/differential.cc): 20000 nodes, path length 3 and 512
// subsets per access for both engines, the zero-ary engine's default
// facts per step. The fuzzer adds a 2 s deadline as a backstop; the
// benchmark sets none, so every verdict, kUnknown included, is a
// function of the request.
constexpr size_t kNodeBudget = 20000;
constexpr size_t kMaxPathLength = 3;
constexpr size_t kMaxSubsetsPerAccess = 512;
constexpr size_t kCacheCapacity = 1024;
constexpr size_t kSemanticCapacity = 1024;
// small_checks: requests each client runs during set-up.
constexpr size_t kSmallWarmup = 64;
// repeat_checks: requests each client runs during set-up (filling the
// caches), Zipf exponent and share of renamed-schema variants.
constexpr size_t kRepeatWarmup = 2048;
constexpr uint64_t kWarmupStream = ~uint64_t{0};
constexpr uint64_t kDispatchEvery = 8;
constexpr double kZipfExponent = 1.0;
constexpr double kRenamedShare = 0.25;
// Traced small_checks runs probe the inner layers on every
// kProbeEvery-th request (repeat_checks reaches the same layers, and
// small_checks measures them).
constexpr uint64_t kProbeEvery = 4;
// op_tail_us percentiles. small_checks' p99 falls on the few costliest
// requests, which slow the most when the host's speed drifts: over ten
// seeds it spread 0.22 of its median, against 0.15 for the median.
// repeat_checks' p99 falls on the engine answers to rarely drawn
// requests, whose number changes with the seed's draws: over five
// seeds it spread 0.52 of its median, p95 0.09.
constexpr double kSmallTail = 0.90;
constexpr double kRepeatTail = 0.95;

svc::PrepareOptions RequestOptions(bool shrink) {
  svc::PrepareOptions o;
  o.shrink_witness = shrink;
  o.zero.max_nodes = kNodeBudget;
  o.zero.max_path_length = kMaxPathLength;
  o.zero.max_subsets_per_access = kMaxSubsetsPerAccess;
  o.bounded.max_nodes = kNodeBudget;
  o.bounded.max_path_length = kMaxPathLength;
  return o;
}

svc::ServiceOptions ServiceConfig(size_t dispatchers) {
  svc::ServiceOptions o;
  o.num_threads = 1;
  o.num_dispatchers = dispatchers;
  o.cache_capacity = kCacheCapacity;
  o.semantic_cache_capacity = kSemanticCapacity;
  return o;
}

/// Which tier answered, as the harness logs it (the codes of
/// service::AnswerSource).
enum Source : uint8_t { kFromEngine = 0, kFromSyntactic = 1, kFromSemantic = 2 };

Source SourceOf(const svc::CheckResponse& r) {
  switch (r.source) {
    case svc::AnswerSource::kEngine:
      return kFromEngine;
    case svc::AnswerSource::kSyntacticCache:
      return kFromSyntactic;
    case svc::AnswerSource::kSemanticCache:
      return kFromSemantic;
  }
  return kFromEngine;
}

const char* SourceName(uint8_t s) {
  return s == kFromEngine ? "engine"
         : s == kFromSyntactic ? "syntactic-cache"
                               : "semantic-cache";
}

/// One answered request, as logged by its client.
struct OpRecord {
  uint32_t item = 0;
  uint8_t variant = 0;  // 0 = original schema, 1 = renamed schema
  uint8_t answer = 0;
  uint8_t source = 0;
  bool error = false;
  uint32_t witness_len = 0;
  uint64_t nodes = 0;
};

struct ClientLog {
  std::vector<OpRecord> ops;
  /// Decisions this client saw per (item, variant, tier), keyed
  /// (item * 2 + variant) * 4 + source: the first one, then every kYes
  /// whose witness differs from each kept so far (a semantic transfer
  /// carries the witness of whichever donor answered it).
  std::unordered_map<uint32_t, std::vector<analysis::Decision>> seen;
  std::vector<double> queue_wait_us;
  /// Dispatcher probes whose verdict differed from the op's.
  uint64_t dispatch_mismatches = 0;
  std::vector<std::string> error_text;
  uint64_t exhausted = 0;
  uint64_t engine_answers = 0;
};

const std::string& SchemaText(const CheckItem& item, int variant) {
  return variant == 0 ? item.schema_text : item.renamed_schema_text;
}
const std::string& FormulaText(const CheckItem& item, int variant) {
  return variant == 0 ? item.formula_text : item.renamed_formula_text;
}

/// The inner-layer calls a traced run times on a sample of requests:
/// classification, canonical keys, the zero-ary plan or the automaton
/// compile, a direct DecidePrepared and witness shrinking.
void ProbeLayers(const schema::Schema& s, const acc::AccPtr& f,
                 const svc::PrepareOptions& po, uint64_t request) {
  Span root("probe", request);
  {
    Span sp("accltl.classify");
    acc::Fragment frag = acc::Analyze(f).Classify();
    sp.SetArg(static_cast<int64_t>(frag));
  }
  {
    Span sp("service.key");
    svc::CanonicalRequestKey key = svc::MakeCanonicalRequestKey(s, f, po);
    svc::SemanticKey sem = svc::MakeSemanticKey(s, f, po);
    sp.SetArg(static_cast<int64_t>(key.schema_text.size() +
                                   sem.formula_text.size()));
  }
  bool zero_ok = false;
  {
    Span sp("analysis.zero_plan");
    zero_ok = analysis::PrepareZeroAry(f, s).ok();
    if (!zero_ok) sp.SetName("analysis.zero_plan_reject");
  }
  if (!zero_ok) {
    Span sp("automata.compile");
    Result<accltl::automata::AAutomaton> a =
        accltl::automata::CompileToAutomaton(f, s);
    if (a.ok()) {
      sp.SetArg(a.value().num_states());
    } else {
      sp.SetName("automata.compile_reject");
    }
  }
  Result<analysis::PreparedFormula> pf = [&] {
    Span sp("analysis.prepare");
    return analysis::PrepareSatisfiability(f, s);
  }();
  if (!pf.ok()) return;
  analysis::DecideOptions d;
  d.zero = po.zero;
  d.bounded = po.bounded;
  d.exec.num_threads = 1;
  Result<analysis::Decision> dec = [&] {
    Span sp("analysis.decide");
    Result<analysis::Decision> r = analysis::DecidePrepared(pf.value(), s, d);
    if (r.ok()) {
      sp.SetName(r.value().engine == "zero-ary" ? "analysis.decide.zero"
                                                : "analysis.decide.automata");
      sp.SetArg(static_cast<int64_t>(r.value().nodes_explored));
    }
    return r;
  }();
  if (po.shrink_witness && dec.ok() &&
      dec.value().satisfiable == analysis::Answer::kYes &&
      dec.value().has_witness) {
    Span sp("analysis.shrink");
    schema::AccessPath shrunk = analysis::ShrinkWitness(
        f, s, schema::Instance(s), dec.value().witness, po.grounded);
    sp.SetArg(static_cast<int64_t>(shrunk.size()));
  }
}

/// What a request parsed and prepared, handed back for a traced run's
/// probes.
struct Parsed {
  schema::Schema schema;
  acc::AccPtr formula;
  std::shared_ptr<const svc::PreparedQuery> prepared;
};

/// One request: parse the schema, parse the formula, Prepare, Check.
/// When `keep` is set, what it parsed and prepared is handed back.
bool RunRequest(svc::AnalysisService* service, const CheckItem& item,
                int variant, svc::CheckResponse* out, std::string* err,
                Parsed* keep = nullptr) {
  Result<schema::Schema> s = [&] {
    Span sp("schema.parse");
    return schema::ParseSchema(SchemaText(item, variant));
  }();
  if (!s.ok()) {
    *err = "schema: " + s.status().ToString();
    return false;
  }
  Result<acc::AccPtr> f = [&] {
    Span sp("accltl.parse");
    return acc::ParseAccFormula(FormulaText(item, variant), s.value());
  }();
  if (!f.ok()) {
    *err = "formula: " + f.status().ToString();
    return false;
  }
  Result<std::shared_ptr<const svc::PreparedQuery>> p = [&] {
    Span sp("service.prepare");
    return service->Prepare(s.value(), f.value(), RequestOptions(item.shrink));
  }();
  if (!p.ok()) {
    *err = "prepare: " + p.status().ToString();
    return false;
  }
  {
    Span sp("service.check");
    *out = service->Check(*p.value());
    sp.SetName(SourceOf(*out) == kFromEngine ? "service.engine_check"
                                             : "service.hit");
  }
  if (!out->status.ok()) {
    *err = "check: " + out->status.ToString();
    return false;
  }
  if (keep != nullptr) {
    keep->schema = std::move(s.value());
    keep->formula = f.value();
    keep->prepared = p.value();
  }
  return true;
}

bool SameWitness(const schema::AccessPath& a, const schema::AccessPath& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a.step(i).access == b.step(i).access) ||
        a.step(i).response != b.step(i).response) {
      return false;
    }
  }
  return true;
}

void Log(ClientLog* log, uint32_t item, int variant,
         const svc::CheckResponse& r, bool ok, const std::string& err) {
  OpRecord rec;
  rec.item = item;
  rec.variant = static_cast<uint8_t>(variant);
  rec.error = !ok;
  if (!ok) {
    if (log->error_text.size() < 5) log->error_text.push_back(err);
    log->ops.push_back(rec);
    return;
  }
  const analysis::Decision& d = r.decision;
  rec.answer = static_cast<uint8_t>(d.satisfiable);
  rec.source = SourceOf(r);
  rec.witness_len = static_cast<uint32_t>(d.witness.size());
  rec.nodes = d.nodes_explored;
  log->ops.push_back(rec);
  if (rec.source == kFromEngine) {
    ++log->engine_answers;
    if (d.exhausted_budget) ++log->exhausted;
  }
  uint32_t key = (item * 2 + static_cast<uint32_t>(variant)) * 4 + rec.source;
  std::vector<analysis::Decision>& kept = log->seen[key];
  bool keep = kept.empty();
  if (!keep && d.satisfiable == analysis::Answer::kYes) {
    keep = std::none_of(kept.begin(), kept.end(),
                        [&d](const analysis::Decision& k) {
                          return SameWitness(k.witness, d.witness);
                        });
  }
  if (keep) kept.push_back(d);
}

/// Checks every logged answer:
///  - every answer to one item, on either schema variant and from any
///    tier, has the verdict of the item's first engine answer;
///  - engine answers to one (item, variant) repeat its node count and
///    witness length (cache replays need not: a semantic transfer
///    carries its donor's statistics, and the syntactic cache admits
///    and replays such transfers too);
///  - every distinct kYes witness seen, from any tier, is valid and
///    satisfies the formula by the reference oracle, and the engine
///    gives one witness per (item, variant) on every client.
void VerifyChecks(const Inputs& in, const std::vector<ClientLog>& logs,
                  RunResult* result) {
  std::unordered_map<uint32_t, uint8_t> ref_answer;
  std::unordered_map<uint32_t, const OpRecord*> ref_engine;
  for (const ClientLog& log : logs) {
    for (const OpRecord& r : log.ops) {
      if (r.error || r.source != kFromEngine) continue;
      ref_answer.emplace(r.item, r.answer);
      ref_engine.emplace(r.item * 2 + r.variant, &r);
    }
  }
  for (const ClientLog& log : logs) {
    for (const OpRecord& r : log.ops) {
      if (r.error) continue;
      auto a = ref_answer.find(r.item);
      if (a != ref_answer.end() && a->second != r.answer) {
        result->Wrong("item " + std::to_string(r.item) + " variant " +
                      std::to_string(r.variant) + ": answer " +
                      analysis::AnswerName(static_cast<analysis::Answer>(r.answer)) +
                      " (source " + SourceName(r.source) +
                      ") differs from the first engine answer " +
                      analysis::AnswerName(static_cast<analysis::Answer>(a->second)));
        continue;
      }
      if (r.source != kFromEngine) continue;
      const OpRecord* e = ref_engine[r.item * 2 + r.variant];
      if (e->nodes != r.nodes || e->witness_len != r.witness_len) {
        result->Wrong("item " + std::to_string(r.item) +
                      ": engine answer changed nodes/witness length (" +
                      std::to_string(e->nodes) + "/" +
                      std::to_string(e->witness_len) + " vs " +
                      std::to_string(r.nodes) + "/" +
                      std::to_string(r.witness_len) + ")");
      }
    }
  }
  // Witnesses: every distinct one each client saw per (item, variant,
  // tier).
  std::unordered_map<uint32_t, std::string> engine_witness;
  auto check_witness = [&](uint32_t seen_key, const analysis::Decision& d) {
    uint32_t key = seen_key / 4;
    bool from_engine = seen_key % 4 == kFromEngine;
    const CheckItem& item = in.checks[key / 2];
    int variant = static_cast<int>(key % 2);
    Result<schema::Schema> s = schema::ParseSchema(SchemaText(item, variant));
    Result<acc::AccPtr> f =
        acc::ParseAccFormula(FormulaText(item, variant), s.value());
    std::string where = "item " + std::to_string(key / 2) + " variant " +
                        std::to_string(variant);
    if (!d.has_witness) {
      result->Wrong(where + ": kYes without a witness");
      return;
    }
    accltl::Status valid = d.witness.Validate(s.value());
    if (!valid.ok()) {
      result->Wrong(where + ": witness invalid: " + valid.ToString());
      return;
    }
    if (!accltl::oracle::NaiveEvalOnPath(f.value(), s.value(), d.witness,
                                         schema::Instance(s.value()))) {
      result->Wrong(where + ": witness does not satisfy the formula");
      return;
    }
    if (!from_engine) return;
    std::string text = d.witness.ToString(s.value());
    auto [it, inserted] = engine_witness.emplace(key, text);
    if (!inserted && it->second != text) {
      result->Wrong(where + ": the engine gave different witnesses");
    }
  };
  for (const ClientLog& log : logs) {
    for (const auto& [seen_key, kept] : log.seen) {
      for (const analysis::Decision& d : kept) {
        if (d.satisfiable == analysis::Answer::kYes) check_witness(seen_key, d);
      }
    }
  }
}

/// Per-layer metrics from a traced phase's spans. A metric whose span
/// never occurred is left out, so a traced run takes it from the
/// workload that does reach that layer.
void AddLayerMetrics(const std::vector<SpanRecord>& spans, RunResult* r) {
  auto add = [&](const char* metric, const char* prefix, int64_t max_arg = -1) {
    std::vector<double> d = SpanDurations(spans, prefix, max_arg);
    if (!d.empty()) r->Add(metric, Median(d), "us");
  };
  add("schema.parse_us", "schema.parse");
  add("accltl.parse_us", "accltl.parse");
  add("accltl.classify_us", "accltl.classify");
  add("service.key_us", "service.key");
  add("analysis.zero_plan_us", "analysis.zero_plan");
  add("automata.compile_us", "automata.compile");
  double states = 0;
  size_t compiled = 0;
  for (const SpanRecord& s : spans) {
    if (std::string(s.name) == "automata.compile" && s.arg >= 0) {
      states += static_cast<double>(s.arg);
      ++compiled;
    }
  }
  if (compiled > 0) r->Add("automata.states", states / compiled, "count");
  add("service.prepare_us", "service.prepare");
  add("service.engine_check_us", "service.engine_check");
  add("service.hit_us", "service.hit");
  add("analysis.decide_us", "analysis.decide");
  add("analysis.decide_zero_us", "analysis.decide.zero");
  add("analysis.decide_automata_us", "analysis.decide.automata");
  add("analysis.decide_fixed_us", "analysis.decide.", 3);
  add("analysis.shrink_us", "analysis.shrink");
}

/// What distinguishes the two check workloads.
struct CheckSpec {
  size_t clients = 1;
  size_t dispatchers = 1;
  /// Requests each client runs during set-up.
  size_t warmup_per_client = 0;
  /// op_tail_us percentile.
  double tail_q = 0.95;
  /// Traced runs probe the inner layers on every probe_every-th
  /// request, and the dispatcher path on every dispatch_every-th
  /// (0: never).
  uint64_t probe_every = 0;
  uint64_t dispatch_every = 0;
  /// Picks client c's next (item, variant); `draw` is the client's
  /// running op count.
  std::function<std::pair<uint32_t, int>(size_t c, uint64_t draw)> pick;
};

struct CheckState {
  Inputs in;
  std::unique_ptr<svc::AnalysisService> service;
  std::vector<ClientLog> logs;
  std::vector<uint64_t> draws;  // ops run so far, per client
};

struct CacheCounters {
  uint64_t hits = 0, lookups = 0, sem_hits = 0, sem_lookups = 0, evictions = 0;
  uint64_t exhausted = 0, engine = 0;
  static CacheCounters Read(const CheckState& st) {
    CacheCounters c;
    svc::LruCache<svc::CheckResponse>::Stats a = st.service->cache_stats();
    svc::SemanticCache::Stats b = st.service->semantic_stats();
    c.hits = a.hits;
    c.lookups = a.hits + a.misses;
    c.sem_hits = b.hits;
    c.sem_lookups = b.hits + b.misses;
    c.evictions = a.evictions + b.evictions;
    for (const ClientLog& l : st.logs) {
      c.exhausted += l.exhausted;
      c.engine += l.engine_answers;
    }
    return c;
  }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

RunResult RunCheckWorkload(const InputSource& source, const RunConfig& cfg,
                           const CheckSpec& spec) {
  RunResult result;
  std::unique_ptr<CheckState> st;
  std::string load_err;

  // One op of client c: parse -> Prepare -> Check, timed as a whole.
  // A traced run's probes run after the clock stops.
  auto op = [&](CheckState* s, size_t c, bool probe, PhaseStats* stats) {
    uint64_t seq = s->draws[c]++;
    auto [item, variant] = spec.pick(c, seq);
    const CheckItem& it = s->in.checks[item];
    uint64_t request = (static_cast<uint64_t>(c + 1) << 40) | seq;
    bool layer_probe =
        probe && spec.probe_every != 0 && seq % spec.probe_every == 0;
    bool dispatch_probe =
        probe && spec.dispatch_every != 0 && seq % spec.dispatch_every == 0;
    Parsed parsed;
    svc::CheckResponse resp;
    std::string err;
    int64_t t0 = NowNs();
    bool ok;
    {
      Span root("request", request);
      ok = RunRequest(s->service.get(), it, variant, &resp, &err,
                      layer_probe || dispatch_probe ? &parsed : nullptr);
    }
    int64_t t1 = NowNs();
    ClientLog& log = s->logs[c];
    // A failed op is left out of the latency and rate samples (it
    // counts in `failed`, and any failure fails the run).
    if (stats != nullptr && ok) {
      stats->Add(t1, t1 - t0,
                 SourceOf(resp) == kFromEngine ? resp.decision.nodes_explored
                                               : 0);
    }
    Log(&log, item, variant, resp, ok, err);
    if (!ok) return;
    if (layer_probe) {
      ProbeLayers(parsed.schema, parsed.formula, RequestOptions(it.shrink),
                  request);
    }
    if (dispatch_probe) {
      // The same request again through the dispatcher queue: the wait
      // is the round trip minus the service's own time.
      Span sp("service.submit_get", request);
      int64_t sub = NowNs();
      svc::CheckResponse r = s->service->Submit(parsed.prepared).Get();
      log.queue_wait_us.push_back(static_cast<double>(NowNs() - sub) / 1000.0 -
                                  static_cast<double>(r.elapsed.count()));
      if (r.decision.satisfiable != resp.decision.satisfiable) {
        ++log.dispatch_mismatches;
      }
    }
  };

  double setup_s = MedianSetupSeconds(cfg.setups, [&] { st.reset(); }, [&] {
    auto s = std::make_unique<CheckState>();
    if (!source(&s->in, &load_err)) return;
    s->service = std::make_unique<svc::AnalysisService>(
        ServiceConfig(spec.dispatchers));
    s->logs.resize(spec.clients);
    s->draws.assign(spec.clients, 0);
    RunClosedLoop(spec.clients, 0, [&](size_t c, const std::atomic<bool>&) {
      for (size_t i = 0; i < spec.warmup_per_client; ++i) {
        op(s.get(), c, false, nullptr);
      }
    });
    st = std::move(s);
  });
  if (st == nullptr || !load_err.empty()) {
    result.Wrong("inputs: " + load_err);
    return result;
  }

  // Warm-up answers stay in the logs (they are the first engine answers
  // the checks compare against); latency and counts start here.
  std::vector<size_t> timed_from;
  for (ClientLog& log : st->logs) {
    log.queue_wait_us.clear();
    timed_from.push_back(log.ops.size());
  }
  double wall = 0;
  auto phase = [&](double seconds, bool probe) {
    return RunPhase(spec.clients, seconds, kIntervals,
                    [&](size_t c, const std::atomic<bool>& stop,
                        PhaseStats* stats) {
                      while (!stop.load(std::memory_order_relaxed)) {
                        op(st.get(), c, probe, stats);
                      }
                    },
                    &wall);
  };

  PhaseStats untraced = phase(cfg.trace ? cfg.seconds / 2 : cfg.seconds, false);
  double untraced_wall = wall;

  if (cfg.trace) {
    CacheCounters before = CacheCounters::Read(*st);
    for (ClientLog& log : st->logs) log.queue_wait_us.clear();
    Tracer::Get().Clear();
    Tracer::Get().Enable(true);
    PhaseStats traced = phase(cfg.seconds / 2, true);
    Tracer::Get().Enable(false);
    CacheCounters after = CacheCounters::Read(*st);
    std::vector<SpanRecord> spans = Tracer::Get().Collect();
    AddLayerMetrics(spans, &result);
    result.Add("service.syntactic_hit_ratio",
               Ratio(after.hits - before.hits, after.lookups - before.lookups),
               "ratio");
    result.Add("service.semantic_hit_ratio",
               Ratio(after.sem_hits - before.sem_hits,
                     after.sem_lookups - before.sem_lookups),
               "ratio");
    result.Add("service.evictions",
               static_cast<double>(after.evictions - before.evictions), "count");
    result.Add("analysis.budget_exhausted_share",
               Ratio(after.exhausted - before.exhausted,
                     after.engine - before.engine),
               "ratio");
    std::vector<double> waits;
    for (const ClientLog& log : st->logs) {
      waits.insert(waits.end(), log.queue_wait_us.begin(),
                   log.queue_wait_us.end());
    }
    if (!waits.empty()) {
      result.Add("service.queue_wait_us", Median(waits), "us");
    }
    double base = untraced.All().QuantileUs(0.5);
    result.Add("trace.overhead_pct",
               base == 0 ? 0
                         : (traced.All().QuantileUs(0.5) / base - 1) * 100,
               "%");
    result.spans = std::move(spans);
  }

  uint64_t decided = 0, answered = 0;
  for (size_t c = 0; c < st->logs.size(); ++c) {
    const ClientLog& log = st->logs[c];
    for (size_t i = timed_from[c]; i < log.ops.size(); ++i) {
      ++result.attempted;
      if (log.ops[i].error) {
        ++result.failed;
        continue;
      }
      ++answered;
      if (log.ops[i].answer !=
          static_cast<uint8_t>(analysis::Answer::kUnknown)) {
        ++decided;
      }
    }
    for (const std::string& e : log.error_text) {
      std::fprintf(stderr, "request error: %s\n", e.c_str());
    }
    if (log.dispatch_mismatches > 0) {
      result.Wrong(std::to_string(log.dispatch_mismatches) +
                   " dispatcher answers differ from the Check answer");
    }
  }
  if (!cfg.trace) {
    AddEndToEnd(&result, untraced, spec.tail_q, untraced_wall,
                Ratio(decided, answered), setup_s);
  }
  VerifyChecks(st->in, st->logs, &result);
  return result;
}

}  // namespace

RunResult RunSmallChecks(const InputSource& source, const RunConfig& cfg) {
  CheckSpec spec;
  spec.clients = cfg.nproc;
  spec.dispatchers = 1;
  spec.warmup_per_client = kSmallWarmup;
  spec.probe_every = kProbeEvery;
  spec.tail_q = kSmallTail;
  // Client c owns items c, c + clients, ... and walks them in order
  // from a seeded start; its slice (2048 items at 4 clients) is larger
  // than the result cache, so an item comes back only after it has
  // been evicted.
  size_t pool = 0;
  std::vector<uint64_t> start(spec.clients);
  spec.pick = [&pool, &start, &spec](size_t c, uint64_t draw) {
    size_t slice = (pool - c + spec.clients - 1) / spec.clients;
    return std::make_pair(
        static_cast<uint32_t>(c + ((start[c] + draw) % slice) * spec.clients),
        0);
  };
  InputSource counted = [&](Inputs* in, std::string* err) {
    if (!source(in, err)) return false;
    pool = in->checks.size();
    BenchRng rng(cfg.seed);
    for (uint64_t& s : start) s = rng.Next();
    return pool >= spec.clients;
  };
  return RunCheckWorkload(counted, cfg, spec);
}

RunResult RunRepeatChecks(const InputSource& source, const RunConfig& cfg) {
  CheckSpec spec;
  // The op answers through Check: on a shared host each dispatcher
  // handoff (two thread wake-ups) costs a bimodal, run-dependent
  // amount, which made Submit + Get ops spread over half their median
  // from run to run. A traced run times the dispatcher path on every
  // kDispatchEvery-th request instead. Clients plus the dispatcher
  // stay within nproc.
  spec.clients = std::max<size_t>(1, cfg.nproc - 1);
  spec.dispatchers = 1;
  spec.dispatch_every = kDispatchEvery;
  spec.warmup_per_client = kRepeatWarmup;
  spec.tail_q = kRepeatTail;
  // Zipf-skewed draws over the pool, ranked in the generator's order:
  // the pool and its ranking are the same for every seed (inputs.cc),
  // because which few costly requests rank near the top would set the
  // throughput. A quarter of the draws use the renamed-schema variant.
  // Each client's stream is a function of (seed, client, draw), so
  // set-ups repeat exactly. The set-up's draws are the same for every
  // seed: a few thousand draws are too few to even out the costly
  // requests, and set-up time changed with the seed (0.4 s or 1.7 s).
  std::vector<double> cdf;
  InputSource ranked = [&](Inputs* in, std::string* err) {
    if (!source(in, err)) return false;
    size_t n = in->checks.size();
    cdf.resize(n);
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf[k] = total;
    }
    for (double& x : cdf) x /= total;
    return n > 0;
  };
  spec.pick = [&](size_t c, uint64_t draw) {
    uint64_t stream = draw < kRepeatWarmup ? kWarmupStream : cfg.seed;
    BenchRng rng(stream * 0x9e3779b97f4a7c15ULL + (c + 1) * 0x1000003ULL +
                 draw);
    double u = rng.Unit();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (rank >= cdf.size()) rank = cdf.size() - 1;
    int variant = rng.Unit() < kRenamedShare ? 1 : 0;
    return std::make_pair(static_cast<uint32_t>(rank), variant);
  };
  return RunCheckWorkload(ranked, cfg, spec);
}

}  // namespace perfbench
