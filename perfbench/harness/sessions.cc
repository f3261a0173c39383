// sessions: about 1000 live monitored sessions over 32 prepared
// formulas, each fed its frozen access stream; a session that reaches
// the end of its stream is closed and reopened.

#include <cstdio>
#include <memory>

#include "perfbench/harness/workloads.h"
#include "src/accltl/parser.h"
#include "src/monitor/progression.h"
#include "src/oracle/oracle.h"
#include "src/schema/text_format.h"
#include "src/service/analysis_service.h"

namespace perfbench {
namespace {

namespace acc = accltl::acc;
namespace schema = accltl::schema;
namespace session = accltl::session;
namespace svc = accltl::service;
using accltl::Result;
using accltl::monitor::Verdict;

// Every kSampleEvery-th progression-backed session has its verdicts
// checked against the reference oracle after every prefix.
constexpr size_t kSampleEvery = 16;
// op_tail_us is p99, the region the automaton-backed steps set.
constexpr double kTail = 0.99;

struct Stream {
  size_t formula = 0;
  std::vector<svc::StepRequest> steps;
};

/// One client-owned live session.
struct Live {
  size_t stream = 0;
  session::SessionId id = 0;
  size_t pos = 0;
  bool final_seen = false;
  Verdict final_verdict = Verdict::kCurrentlyFalse;
  /// Sampled sessions: currently_holds after each step of the first
  /// complete pass started in the timed phase.
  bool recording = false;
  std::vector<bool> holds;
};

struct ClientStats {
  uint64_t ops = 0, failed = 0, final_steps = 0;
  uint64_t closed = 0, closed_final = 0;
  std::vector<std::string> wrong;

  void Wrong(std::string what) {
    if (wrong.size() < 20) wrong.push_back(std::move(what));
  }
};

struct SessionState {
  Inputs in;
  std::vector<std::unique_ptr<schema::Schema>> schemas;
  std::vector<acc::AccPtr> formulas;
  std::vector<session::Backend> backend;  // per formula
  std::vector<Stream> streams;
  std::unique_ptr<svc::AnalysisService> service;
  std::vector<std::shared_ptr<const svc::PreparedQuery>> prepared;
  std::vector<std::vector<Live>> owned;  // per client
};

bool Load(SessionState* st, size_t clients, std::string* err) {
  for (const std::string& text : st->in.session_schemas) {
    Result<schema::Schema> parsed = schema::ParseSchema(text);
    if (!parsed.ok()) {
      *err = parsed.status().ToString();
      return false;
    }
    st->schemas.push_back(
        std::make_unique<schema::Schema>(std::move(parsed.value())));
  }
  svc::ServiceOptions so;
  so.session.max_sessions = 2 * st->in.sessions.size() + 16;
  st->service = std::make_unique<svc::AnalysisService>(so);
  for (const SessionFormula& f : st->in.session_formulas) {
    const schema::Schema& s = *st->schemas[f.schema];
    Result<acc::AccPtr> parsed = acc::ParseAccFormula(f.formula_text, s);
    if (!parsed.ok()) {
      *err = parsed.status().ToString();
      return false;
    }
    Result<std::shared_ptr<const svc::PreparedQuery>> p =
        st->service->Prepare(s, parsed.value());
    if (!p.ok()) {
      *err = p.status().ToString();
      return false;
    }
    st->formulas.push_back(parsed.value());
    st->prepared.push_back(p.value());
  }
  for (const SessionStream& ss : st->in.sessions) {
    Stream stream;
    stream.formula = ss.formula;
    const schema::Schema& s =
        *st->schemas[st->in.session_formulas[ss.formula].schema];
    for (const std::string& line : ss.steps) {
      schema::AccessStep step;
      if (!ParseStepLine(line, s, &step, err)) return false;
      svc::StepRequest req;
      req.access = std::move(step.access);
      req.response = std::move(step.response);
      stream.steps.push_back(std::move(req));
    }
    if (stream.steps.empty()) {
      *err = "empty session stream";
      return false;
    }
    st->streams.push_back(std::move(stream));
  }
  st->owned.resize(clients);
  st->backend.assign(st->formulas.size(), session::Backend::kProgression);
  std::vector<bool> backend_known(st->formulas.size(), false);
  for (size_t i = 0; i < st->streams.size(); ++i) {
    Live live;
    live.stream = i;
    Result<session::SessionId> id =
        st->service->OpenSession(st->prepared[st->streams[i].formula]);
    if (!id.ok()) {
      *err = id.status().ToString();
      return false;
    }
    live.id = id.value();
    size_t f = st->streams[i].formula;
    if (!backend_known[f]) {
      st->backend[f] = st->service->DescribeSession(live.id).value().backend;
      backend_known[f] = true;
    }
    st->owned[i % clients].push_back(std::move(live));
  }
  return true;
}

/// One step of a client's next session (round robin); at the end of
/// a stream the session is closed and reopened.
void StepOnce(SessionState* st, std::vector<Live>& owned, size_t* cursor,
              bool record, ClientStats* cs, PhaseStats* stats) {
  Live& live = owned[(*cursor)++ % owned.size()];
  const Stream& stream = st->streams[live.stream];
  session::Backend backend = st->backend[stream.formula];
  int64_t t0 = NowNs();
  session::StepResult r;
  {
    Span sp(backend == session::Backend::kAutomaton ? "monitor.automaton_step"
                                                    : "monitor.progression_step",
            live.id);
    r = st->service->StepSession(live.id, stream.steps[live.pos]);
  }
  int64_t t1 = NowNs();
  ++cs->ops;
  // A monitor step is the unit of work here: it counts as one node. A
  // failed step counts in `failed`, not in the samples.
  if (stats != nullptr && r.status.ok()) stats->Add(t1, t1 - t0, 1);
  if (!r.status.ok()) {
    ++cs->failed;
    // A recorded pass with a gap no longer lines up with the stream.
    live.recording = false;
    live.holds.clear();
  } else {
    if (live.final_seen && r.verdict != live.final_verdict) {
      cs->Wrong("stream " + std::to_string(live.stream) +
                ": irrevocable verdict flipped");
    }
    if (r.is_final && !live.final_seen) {
      live.final_seen = true;
      live.final_verdict = r.verdict;
    }
    if (r.is_final) ++cs->final_steps;
    if (backend == session::Backend::kAutomaton &&
        r.verdict == Verdict::kSatisfied) {
      cs->Wrong("stream " + std::to_string(live.stream) +
                ": automaton backend reported satisfied");
    }
    if (live.recording) live.holds.push_back(r.currently_holds);
  }
  if (++live.pos < stream.steps.size()) return;

  // End of stream: close, reopen, start over.
  {
    Span sp("session.close", live.id);
    Result<session::SessionInfo> info = st->service->CloseSession(live.id);
    ++cs->closed;
    if (info.ok() && accltl::monitor::IsFinal(info.value().verdict)) {
      ++cs->closed_final;
    }
  }
  {
    Span sp("session.open");
    Result<session::SessionId> id =
        st->service->OpenSession(st->prepared[stream.formula]);
    if (!id.ok()) {
      // The stale id makes every later step of this session fail.
      cs->Wrong("reopen failed: " + id.status().ToString());
      live.pos = 0;
      return;
    }
    live.id = id.value();
  }
  live.pos = 0;
  live.final_seen = false;
  if (live.recording && !live.holds.empty()) {
    live.recording = false;  // one full pass recorded
  } else if (record && live.stream % kSampleEvery == 0 &&
             live.holds.empty() &&
             st->backend[stream.formula] == session::Backend::kProgression) {
    live.recording = true;
  }
}

}  // namespace

RunResult RunSessions(const InputSource& source, const RunConfig& cfg) {
  RunResult result;
  const size_t clients = cfg.nproc;
  std::unique_ptr<SessionState> st;
  std::string load_err;

  // Set-up: inputs, service, prepares, opens, then one full pass over
  // every session's stream.
  double setup_s = MedianSetupSeconds(cfg.setups, [&] { st.reset(); }, [&] {
    auto s = std::make_unique<SessionState>();
    if (!source(&s->in, &load_err)) return;
    if (!Load(s.get(), clients, &load_err)) return;
    RunClosedLoop(clients, 0, [&](size_t c, const std::atomic<bool>&) {
      ClientStats cs;
      size_t cursor = 0;
      size_t steps = 0;
      for (const Live& l : s->owned[c]) steps += s->streams[l.stream].steps.size();
      for (size_t i = 0; i < steps; ++i) {
        StepOnce(s.get(), s->owned[c], &cursor, false, &cs, nullptr);
      }
    });
    st = std::move(s);
  });
  if (st == nullptr || !load_err.empty()) {
    result.Wrong("inputs: " + load_err);
    return result;
  }

  std::vector<ClientStats> stats(clients);
  double wall = 0;
  auto phase = [&](double seconds, std::vector<ClientStats>* out) {
    return RunPhase(clients, seconds, kIntervals,
                    [&](size_t c, const std::atomic<bool>& stop,
                        PhaseStats* ps) {
                      size_t cursor = 0;
                      while (!stop.load(std::memory_order_relaxed)) {
                        StepOnce(st.get(), st->owned[c], &cursor, true,
                                 &(*out)[c], ps);
                      }
                    },
                    &wall);
  };
  PhaseStats untraced =
      phase(cfg.trace ? cfg.seconds / 2 : cfg.seconds, &stats);
  double untraced_wall = wall;
  uint64_t steps = 0, final_steps = 0;
  for (const ClientStats& cs : stats) {
    steps += cs.ops;
    final_steps += cs.final_steps;
  }
  std::vector<ClientStats> traced_stats(clients);
  if (cfg.trace) {
    Tracer::Get().Clear();
    Tracer::Get().Enable(true);
    PhaseStats traced = phase(cfg.seconds / 2, &traced_stats);
    Tracer::Get().Enable(false);
    std::vector<SpanRecord> spans = Tracer::Get().Collect();
    uint64_t closed = 0, closed_final = 0;
    for (const ClientStats& cs : traced_stats) {
      closed += cs.closed;
      closed_final += cs.closed_final;
    }
    result.Add("session.open_us", Median(SpanDurations(spans, "session.open")),
               "us");
    result.Add("session.close_us",
               Median(SpanDurations(spans, "session.close")), "us");
    result.Add("monitor.progression_step_us",
               Median(SpanDurations(spans, "monitor.progression_step")), "us");
    result.Add("monitor.automaton_step_us",
               Median(SpanDurations(spans, "monitor.automaton_step")), "us");
    result.Add("session.final_share",
               closed == 0 ? 0
                           : static_cast<double>(closed_final) /
                                 static_cast<double>(closed),
               "ratio");
    double base = untraced.All().QuantileUs(0.5);
    result.Add("trace.overhead_pct",
               base == 0 ? 0
                         : (traced.All().QuantileUs(0.5) / base - 1) * 100,
               "%");
    result.spans = std::move(spans);
  } else {
    AddEndToEnd(&result, untraced, kTail, untraced_wall,
                steps == 0 ? 0
                           : static_cast<double>(final_steps) /
                                 static_cast<double>(steps),
                setup_s);
  }

  for (const std::vector<ClientStats>* v : {&stats, &traced_stats}) {
    for (const ClientStats& cs : *v) {
      result.attempted += cs.ops;
      result.failed += cs.failed;
      for (const std::string& w : cs.wrong) result.Wrong(w);
    }
  }

  // Sampled progression sessions: the monitor's currently_holds after
  // every prefix must equal the oracle's naive evaluation.
  size_t checked = 0;
  for (const std::vector<Live>& owned : st->owned) {
    for (const Live& live : owned) {
      if (live.holds.empty()) continue;
      const Stream& stream = st->streams[live.stream];
      const schema::Schema& s =
          *st->schemas[st->in.session_formulas[stream.formula].schema];
      schema::AccessPath prefix;
      for (size_t i = 0; i < live.holds.size() && i < stream.steps.size(); ++i) {
        prefix.Append(schema::AccessStep{stream.steps[i].access,
                                         stream.steps[i].response});
        bool oracle = accltl::oracle::NaiveEvalOnPath(
            st->formulas[stream.formula], s, prefix, schema::Instance(s));
        if (oracle != live.holds[i]) {
          result.Wrong("stream " + std::to_string(live.stream) + " step " +
                       std::to_string(i + 1) + ": monitor " +
                       (live.holds[i] ? "holds" : "fails") + ", oracle " +
                       (oracle ? "holds" : "fails"));
          break;
        }
      }
      ++checked;
    }
  }
  size_t automaton = 0;
  for (session::Backend b : st->backend) {
    if (b == session::Backend::kAutomaton) ++automaton;
  }
  std::fprintf(stderr,
               "sessions: %zu streams, %zu/%zu formulas on the automaton "
               "backend, %zu sampled sessions checked against the oracle\n",
               st->streams.size(), automaton, st->backend.size(), checked);
  return result;
}

}  // namespace perfbench
