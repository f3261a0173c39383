// heavy_checks: a short list of expensive analyses and one LTS
// exploration, run by one client with nproc search workers each.

#include <cstdio>
#include <memory>
#include <unordered_set>

#include "perfbench/harness/workloads.h"
#include "src/accltl/parser.h"
#include "src/analysis/decide.h"
#include "src/automata/compile.h"
#include "src/automata/emptiness.h"
#include "src/schema/lts.h"
#include "src/schema/text_format.h"
#include "src/service/analysis_service.h"

namespace perfbench {
namespace {

namespace acc = accltl::acc;
namespace analysis = accltl::analysis;
namespace schema = accltl::schema;
namespace svc = accltl::service;
using accltl::Result;

constexpr size_t kLtsMaxNodes = 200000;
// Repetitions of the serial and parallel diamond behind engine.speedup.
constexpr int kSpeedupReps = 3;
// op_tail_us is p90: a run holds about 200 ops, and p90 spread less
// than p95 over ten seeds (0.14 against 0.17 of the median).
constexpr double kTail = 0.90;

/// One prepared heavy op.
struct HeavyOp {
  const HeavyItem* item = nullptr;
  std::unique_ptr<schema::Schema> schema;
  std::shared_ptr<const svc::PreparedQuery> prepared;  // service checks
  /// Checks from a seeded initial instance: the compiled automaton
  /// and the instance for a direct witness search.
  std::unique_ptr<accltl::automata::AAutomaton> automaton;
  schema::Instance initial;
  schema::LtsOptions lts;  // explorations
};

/// What one op returned: the deterministic part is compared across
/// every repetition of the op.
struct HeavyOutcome {
  bool ok = false;
  std::string error;
  int answer = 0;
  bool exhausted = false;
  uint64_t nodes = 0;
  uint64_t visited_bytes = 0;
  uint64_t treedb_nodes = 0;
  std::string levels;  // LTS per-level statistics

  bool SameAs(const HeavyOutcome& o) const {
    return ok == o.ok && answer == o.answer && exhausted == o.exhausted &&
           nodes == o.nodes && visited_bytes == o.visited_bytes &&
           levels == o.levels;
  }
  std::string Describe() const {
    return ok ? std::string(analysis::AnswerName(
                    static_cast<analysis::Answer>(answer))) +
                    " nodes=" + std::to_string(nodes) +
                    " exhausted=" + std::to_string(exhausted) +
                    " visited_bytes=" + std::to_string(visited_bytes) +
                    (levels.empty() ? "" : " levels=" + levels)
              : "error: " + error;
  }
};

struct HeavyState {
  Inputs in;
  std::unique_ptr<svc::AnalysisService> service;
  std::vector<HeavyOp> ops;
  std::vector<HeavyOutcome> reference;  // from the set-up pass
};

/// Runs one op at `workers` search workers; `compact` selects the
/// tree-compressed visited storage instead of exact records.
HeavyOutcome RunOp(svc::AnalysisService* service, const HeavyOp& op,
                   size_t workers, bool compact = false) {
  HeavyOutcome out;
  accltl::engine::ExecOptions exec;
  exec.num_threads = workers;
  exec.visited_mode = compact ? accltl::engine::VisitedMode::kCompact
                              : accltl::engine::VisitedMode::kExact;
  if (op.item->lts) {
    Span sp("engine.lts_explore");
    schema::LtsMemoryStats mem;
    std::vector<schema::LtsLevelStats> levels = schema::ExploreBreadthFirst(
        *op.schema, schema::Instance(*op.schema), op.lts,
        static_cast<size_t>(op.item->depth), kLtsMaxNodes, exec, &mem);
    out.visited_bytes = mem.visited_bytes;
    out.treedb_nodes = mem.treedb_nodes;
    out.ok = true;
    for (const schema::LtsLevelStats& l : levels) {
      out.nodes += l.distinct_configurations;
      out.levels += std::to_string(l.distinct_configurations) + "/" +
                    std::to_string(l.transitions) + ";";
      if (l.truncated) out.exhausted = true;
    }
    sp.SetArg(static_cast<int64_t>(out.nodes));
    return out;
  }
  if (op.automaton != nullptr) {
    Span sp("automata.witness_search");
    accltl::automata::WitnessSearchOptions wo;
    wo.max_path_length = static_cast<size_t>(op.item->max_path_length);
    accltl::automata::WitnessSearchResult r =
        accltl::automata::BoundedWitnessSearch(*op.automaton, *op.schema,
                                               op.initial, wo, exec);
    out.ok = !r.cancelled;
    out.answer = static_cast<int>(r.found ? analysis::Answer::kYes
                                          : analysis::Answer::kUnknown);
    out.exhausted = r.exhausted_budget;
    out.nodes = r.nodes_explored;
    out.visited_bytes = r.visited_bytes;
    out.treedb_nodes = r.treedb_nodes;
    sp.SetArg(static_cast<int64_t>(out.nodes));
    return out;
  }
  Span sp("service.engine_check");
  svc::CheckRequest req;
  req.use_cache = false;
  req.num_threads = workers;
  req.visited_mode = exec.visited_mode;
  svc::CheckResponse r = service->Check(*op.prepared, req);
  out.ok = r.status.ok() && r.verdict == svc::Verdict::kCompleted;
  out.error = r.status.ToString();
  out.answer = static_cast<int>(r.decision.satisfiable);
  out.exhausted = r.decision.exhausted_budget;
  out.nodes = r.decision.nodes_explored;
  out.visited_bytes = r.decision.visited_bytes;
  out.treedb_nodes = r.decision.treedb_nodes;
  sp.SetArg(static_cast<int64_t>(out.nodes));
  return out;
}

bool PrepareOps(HeavyState* st, std::string* err) {
  for (const HeavyItem& item : st->in.heavy) {
    HeavyOp op;
    op.item = &item;
    Result<schema::Schema> s = schema::ParseSchema(item.schema_text);
    if (!s.ok()) {
      *err = item.name + ": " + s.status().ToString();
      return false;
    }
    op.schema = std::make_unique<schema::Schema>(std::move(s.value()));
    if (item.lts) {
      Result<schema::Instance> u =
          schema::ParseInstance(item.universe_text, *op.schema);
      if (!u.ok()) {
        *err = item.name + ": " + u.status().ToString();
        return false;
      }
      op.lts.universe = std::move(u.value());
      op.lts.seed_values = {accltl::Value::Str(item.seed_value)};
    } else if (!item.universe_text.empty()) {
      Result<schema::Instance> u =
          schema::ParseInstance(item.universe_text, *op.schema);
      Result<acc::AccPtr> f = acc::ParseAccFormula(item.formula_text, *op.schema);
      if (!u.ok() || !f.ok()) {
        *err = item.name + ": " +
               (u.ok() ? f.status() : u.status()).ToString();
        return false;
      }
      Result<accltl::automata::AAutomaton> a =
          accltl::automata::CompileToAutomaton(f.value(), *op.schema);
      if (!a.ok()) {
        *err = item.name + ": " + a.status().ToString();
        return false;
      }
      op.initial = std::move(u.value());
      op.automaton = std::make_unique<accltl::automata::AAutomaton>(
          std::move(a.value()));
    } else {
      svc::PrepareOptions po;
      po.bounded.max_path_length = static_cast<size_t>(item.max_path_length);
      po.zero.max_path_length = static_cast<size_t>(item.max_path_length);
      Result<std::shared_ptr<const svc::PreparedQuery>> p =
          st->service->Prepare(*op.schema, item.formula_text, po);
      if (!p.ok()) {
        *err = item.name + ": " + p.status().ToString();
        return false;
      }
      op.prepared = p.value();
    }
    st->ops.push_back(std::move(op));
  }
  return !st->ops.empty();
}

}  // namespace

RunResult RunHeavyChecks(const InputSource& source, const RunConfig& cfg) {
  RunResult result;
  const size_t workers = cfg.nproc;
  std::unique_ptr<HeavyState> st;
  std::string load_err;

  // Set-up: inputs, service, prepares, then one pass over every op,
  // whose outcomes are the reference every later repetition must match.
  double setup_s = MedianSetupSeconds(cfg.setups, [&] { st.reset(); }, [&] {
    auto s = std::make_unique<HeavyState>();
    if (!source(&s->in, &load_err)) return;
    svc::ServiceOptions so;
    so.num_threads = workers;
    s->service = std::make_unique<svc::AnalysisService>(so);
    if (!PrepareOps(s.get(), &load_err)) return;
    for (const HeavyOp& op : s->ops) {
      s->reference.push_back(RunOp(s->service.get(), op, workers));
    }
    st = std::move(s);
  });
  if (st == nullptr || !load_err.empty()) {
    result.Wrong("inputs: " + load_err);
    return result;
  }
  for (size_t i = 0; i < st->ops.size(); ++i) {
    std::fprintf(stderr, "heavy %-16s %s\n", st->ops[i].item->name.c_str(),
                 st->reference[i].Describe().c_str());
  }

  struct Done {
    size_t op;
    double us;
    HeavyOutcome out;
  };
  std::vector<Done> done;
  double wall = 0;
  // One interval: a run holds only a few hundred ops.
  auto phase = [&](double seconds) {
    return RunPhase(
        1, seconds, 1,
        [&](size_t, const std::atomic<bool>& stop, PhaseStats* stats) {
          for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
            size_t k = i % st->ops.size();
            int64_t t0 = NowNs();
            HeavyOutcome out;
            {
              Span root("request", (uint64_t{1} << 40) | (done.size() + 1));
              out = RunOp(st->service.get(), st->ops[k], workers);
            }
            int64_t t1 = NowNs();
            // A failed op counts in `failed`, not in the samples.
            if (out.ok) stats->Add(t1, t1 - t0, out.nodes);
            done.push_back(
                {k, static_cast<double>(t1 - t0) / 1000.0, std::move(out)});
          }
        },
        &wall);
  };

  PhaseStats untraced = phase(cfg.trace ? cfg.seconds / 2 : cfg.seconds);
  double untraced_wall = wall;
  // decided_share over whole passes of the list, so a trailing partial
  // pass does not tilt it toward the ops that happen to come first.
  uint64_t checks = 0, decided = 0;
  size_t whole = done.size() - done.size() % st->ops.size();
  for (size_t i = 0; i < whole; ++i) {
    const Done& d = done[i];
    if (st->ops[d.op].item->lts) continue;
    ++checks;
    if (d.out.answer != static_cast<int>(analysis::Answer::kUnknown)) ++decided;
  }

  if (cfg.trace) {
    Tracer::Get().Clear();
    Tracer::Get().Enable(true);
    PhaseStats traced = phase(cfg.seconds / 2);
    // engine.speedup: the diamond at one worker and at nproc.
    const HeavyOp* diamond = nullptr;
    for (const HeavyOp& op : st->ops) {
      if (op.item->name == "diamond") diamond = &op;
    }
    std::vector<double> serial, parallel;
    for (int rep = 0; diamond != nullptr && rep < kSpeedupReps; ++rep) {
      for (size_t w : {size_t{1}, workers}) {
        int64_t t0 = NowNs();
        {
          Span sp(w == 1 ? "engine.speedup_serial" : "engine.speedup_parallel");
          RunOp(st->service.get(), *diamond, w);
        }
        (w == 1 ? serial : parallel)
            .push_back(static_cast<double>(NowNs() - t0) / 1000.0);
      }
    }
    // store.treedb_nodes: one pass in compact visited mode.
    uint64_t treedb = 0;
    {
      Span sp("heavy.compact_pass");
      for (const HeavyOp& op : st->ops) {
        treedb += RunOp(st->service.get(), op, workers, true).treedb_nodes;
      }
    }
    Tracer::Get().Enable(false);
    std::vector<SpanRecord> spans = Tracer::Get().Collect();

    uint64_t pass_nodes = 0, pass_bytes = 0;
    for (const HeavyOutcome& o : st->reference) {
      pass_nodes += o.nodes;
      pass_bytes += o.visited_bytes;
    }
    // us_per_node over the timed ops only (children of a "request"
    // span), not the one-worker and compact-mode probes.
    std::unordered_set<uint64_t> requests;
    for (const SpanRecord& s : spans) {
      if (std::string(s.name) == "request") requests.insert(s.id);
    }
    double check_us = 0, check_nodes = 0;
    for (const SpanRecord& s : spans) {
      std::string name = s.name;
      if ((name == "service.engine_check" ||
           name == "automata.witness_search") &&
          s.arg > 0 && requests.count(s.parent) > 0) {
        check_us += static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
        check_nodes += static_cast<double>(s.arg);
      }
    }
    result.Add("engine.nodes", static_cast<double>(pass_nodes), "count");
    result.Add("engine.us_per_node",
               check_nodes == 0 ? 0 : check_us / check_nodes, "us");
    double par = Median(parallel);
    result.Add("engine.speedup", par == 0 ? 0 : Median(serial) / par, "ratio");
    result.Add("engine.lts_explore_us",
               Median(SpanDurations(spans, "engine.lts_explore")), "us");
    result.Add("store.visited_bytes", static_cast<double>(pass_bytes), "bytes");
    result.Add("store.treedb_nodes", static_cast<double>(treedb), "count");
    double base = untraced.All().QuantileUs(0.5);
    result.Add("trace.overhead_pct",
               base == 0 ? 0
                         : (traced.All().QuantileUs(0.5) / base - 1) * 100,
               "%");
    result.spans = std::move(spans);
  } else {
    AddEndToEnd(&result, untraced, kTail, untraced_wall,
                checks == 0 ? 0
                            : static_cast<double>(decided) /
                                  static_cast<double>(checks),
                setup_s);
  }

  for (const Done& d : done) {
    ++result.attempted;
    if (!d.out.ok) {
      ++result.failed;
      continue;
    }
    const HeavyOutcome& ref = st->reference[d.op];
    if (!d.out.SameAs(ref)) {
      result.Wrong(st->ops[d.op].item->name + ": " + d.out.Describe() +
                   " differs from the first run's " + ref.Describe());
    }
  }
  std::vector<std::vector<double>> op_us(st->ops.size());
  for (const Done& d : done) op_us[d.op].push_back(d.us);
  for (size_t i = 0; i < st->ops.size(); ++i) {
    std::fprintf(stderr, "heavy %-16s median %10.1f us over %zu runs\n",
                 st->ops[i].item->name.c_str(), Median(op_us[i]),
                 op_us[i].size());
  }
  // Print the per-op reference so callers can compare runs.
  std::string digest;
  for (size_t i = 0; i < st->ops.size(); ++i) {
    digest += st->ops[i].item->name + "=" + st->reference[i].Describe() + "|";
  }
  std::printf("# heavy-reference %s\n", digest.c_str());
  return result;
}

}  // namespace perfbench
