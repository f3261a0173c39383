#include "perfbench/harness/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "src/common/value.h"

namespace perfbench {

using accltl::Tuple;
using accltl::Value;
namespace schema = accltl::schema;

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  if (idx > 0) --idx;
  if (idx >= v->size()) idx = v->size() - 1;
  return (*v)[idx];
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

void LatencyRecorder::Merge(const LatencyRecorder& o) {
  for (size_t i = 0; i < kDense; ++i) small_[i] += o.small_[i];
  large_.insert(large_.end(), o.large_.begin(), o.large_.end());
  sorted_ = false;
  count_ += o.count_;
}

double LatencyRecorder::QuantileUs(double q) const {
  if (count_ == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  size_t seen = 0;
  for (size_t i = 0; i < kDense; ++i) {
    seen += small_[i];
    if (seen >= rank) return static_cast<double>(i) / 1000.0;
  }
  if (!sorted_) {
    std::sort(large_.begin(), large_.end());
    sorted_ = true;
  }
  return static_cast<double>(large_[rank - seen - 1]) / 1000.0;
}

void PhaseStats::Merge(const PhaseStats& o) {
  if (lat_.empty()) {
    *this = o;
    return;
  }
  for (size_t i = 0; i < lat_.size() && i < o.lat_.size(); ++i) {
    lat_[i].Merge(o.lat_[i]);
  }
  nodes_ += o.nodes_;
}

LatencyRecorder PhaseStats::All() const {
  LatencyRecorder all;
  for (const LatencyRecorder& l : lat_) all.Merge(l);
  return all;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Tracing ---------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->thread_tag = static_cast<uint64_t>(buffers_.size()) << 40;
    buf->spans.reserve(1 << 16);
  }
  return buf;
}

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) b->spans.clear();
}

// Spans kept per thread; later spans are still timed (so the traced
// cost per op stays the same) but dropped, bounding memory and the
// trace file on million-step runs.
constexpr size_t kMaxSpansPerThread = 50000;

Span::Span(const char* name, uint64_t request) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  buf_ = t.ThreadBuffer();
  rec_.name = name;
  rec_.id = buf_->thread_tag | buf_->next_local++;
  rec_.parent = buf_->current;
  saved_current_ = buf_->current;
  saved_request_ = buf_->current_request;
  if (request != 0) buf_->current_request = request;
  rec_.request = buf_->current_request;
  buf_->current = rec_.id;
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (buf_ == nullptr) return;
  rec_.end_ns = NowNs();
  if (buf_->spans.size() < kMaxSpansPerThread) buf_->spans.push_back(rec_);
  buf_->current = saved_current_;
  buf_->current_request = saved_request_;
}

std::vector<double> SpanDurations(const std::vector<SpanRecord>& spans,
                                  const std::string& prefix,
                                  int64_t max_arg) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    std::string name = s.name;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.size() > prefix.size() && prefix.back() != '.' &&
        name[prefix.size()] != '.') {
      continue;
    }
    if (max_arg >= 0 && (s.arg < 0 || s.arg > max_arg)) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
  }
  return out;
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  // Children of one span run sequentially on the parent's thread, so
  // the covered part of the parent is the sum of child durations.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> dur, self;
  for (const SpanRecord& s : spans) {
    double d = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    auto it = child_ns.find(s.id);
    double c = it == child_ns.end() ? 0 : static_cast<double>(it->second) / 1000.0;
    dur[s.name].push_back(d);
    self[s.name].push_back(std::max(0.0, d - c));
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [name, v] : dur) {
    SpanSummary& sum = out[name];
    sum.count = v.size();
    sum.median_us = Median(v);
    sum.median_self_us = Median(self[name]);
  }
  return out;
}

bool WriteTrace(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name, static_cast<unsigned long long>(s.id >> 40),
                 static_cast<double>(s.start_ns - t0) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Frozen inputs ------------------------------------------------------------

std::string Block::Body() const {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

const std::string& Block::Attr(const std::string& key) const {
  static const std::string kEmpty;
  auto it = attrs.find(key);
  return it == attrs.end() ? kEmpty : it->second;
}

long long Block::IntAttr(const std::string& key) const {
  const std::string& v = Attr(key);
  return v.empty() ? 0 : std::stoll(v);
}

std::string RenderBlocks(const std::vector<Block>& blocks) {
  std::string out;
  for (const Block& b : blocks) {
    out += "@" + b.kind;
    for (const auto& [k, v] : b.attrs) out += " " + k + "=" + v;
    out += "\n";
    for (const std::string& l : b.lines) out += l + "\n";
  }
  return out;
}

bool ParseBlocks(const std::string& text, std::vector<Block>* blocks,
                 std::string* err) {
  size_t pos = 0;
  size_t lineno = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++lineno;
    if (!line.empty() && line[0] == '@') {
      Block b;
      size_t sp = line.find(' ');
      b.kind = line.substr(1, sp == std::string::npos ? std::string::npos
                                                      : sp - 1);
      while (sp != std::string::npos) {
        size_t next = line.find(' ', sp + 1);
        std::string kv = line.substr(sp + 1, next == std::string::npos
                                                 ? std::string::npos
                                                 : next - sp - 1);
        size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          *err = "line " + std::to_string(lineno) + ": attribute without '='";
          return false;
        }
        b.attrs[kv.substr(0, eq)] = kv.substr(eq + 1);
        sp = next;
      }
      blocks->push_back(std::move(b));
    } else {
      if (blocks->empty()) {
        *err = "line " + std::to_string(lineno) + ": text before any header";
        return false;
      }
      blocks->back().lines.push_back(std::move(line));
    }
  }
  return true;
}

namespace {

std::string CallText(const std::string& name, const Tuple& values) {
  std::string out = name + "(";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].ToString();
  }
  return out + ")";
}

void SkipSpace(const std::string& s, size_t* pos) {
  while (*pos < s.size() && s[*pos] == ' ') ++*pos;
}

bool ParseValue(const std::string& s, size_t* pos, Value* v, std::string* err) {
  SkipSpace(s, pos);
  if (*pos >= s.size()) {
    *err = "expected a value";
    return false;
  }
  if (s[*pos] == '"') {
    size_t close = s.find('"', *pos + 1);
    if (close == std::string::npos) {
      *err = "unterminated string";
      return false;
    }
    *v = Value::Str(s.substr(*pos + 1, close - *pos - 1));
    *pos = close + 1;
    return true;
  }
  size_t start = *pos;
  while (*pos < s.size() && s[*pos] != ',' && s[*pos] != ')' &&
         s[*pos] != ' ') {
    ++*pos;
  }
  std::string tok = s.substr(start, *pos - start);
  if (tok == "true" || tok == "false") {
    *v = Value::Bool(tok == "true");
    return true;
  }
  if (tok.empty() || tok.find_first_not_of("-0123456789") != std::string::npos) {
    *err = "bad value '" + tok + "'";
    return false;
  }
  *v = Value::Int(std::stoll(tok));
  return true;
}

bool ParseCall(const std::string& s, size_t* pos, std::string* name,
               Tuple* values, std::string* err) {
  SkipSpace(s, pos);
  size_t open = s.find('(', *pos);
  if (open == std::string::npos) {
    *err = "expected '('";
    return false;
  }
  *name = s.substr(*pos, open - *pos);
  *pos = open + 1;
  values->clear();
  SkipSpace(s, pos);
  if (*pos < s.size() && s[*pos] == ')') {
    ++*pos;
    return true;
  }
  for (;;) {
    Value v;
    if (!ParseValue(s, pos, &v, err)) return false;
    values->push_back(std::move(v));
    SkipSpace(s, pos);
    if (*pos < s.size() && s[*pos] == ',') {
      ++*pos;
      continue;
    }
    if (*pos < s.size() && s[*pos] == ')') {
      ++*pos;
      return true;
    }
    *err = "expected ',' or ')'";
    return false;
  }
}

}  // namespace

std::string FormatStepLine(const schema::AccessStep& step,
                           const schema::Schema& s) {
  const schema::AccessMethod& m = s.method(step.access.method);
  std::string out = CallText(m.name, step.access.binding);
  const std::string& rel = s.relation(m.relation).name;
  bool first = true;
  for (const Tuple& t : step.response) {
    out += first ? " -> " : "; ";
    first = false;
    out += CallText(rel, t);
  }
  return out;
}

bool ParseStepLine(const std::string& line, const schema::Schema& s,
                   schema::AccessStep* step, std::string* err) {
  size_t pos = 0;
  std::string method_name;
  if (!ParseCall(line, &pos, &method_name, &step->access.binding, err)) {
    return false;
  }
  accltl::Result<schema::AccessMethodId> m = s.FindMethod(method_name);
  if (!m.ok()) {
    *err = "unknown access method '" + method_name + "'";
    return false;
  }
  step->access.method = m.value();
  step->response.clear();
  SkipSpace(line, &pos);
  if (pos >= line.size()) return true;
  if (line.compare(pos, 2, "->") != 0) {
    *err = "expected '->'";
    return false;
  }
  pos += 2;
  for (;;) {
    std::string rel;
    Tuple t;
    if (!ParseCall(line, &pos, &rel, &t, err)) return false;
    step->response.insert(std::move(t));
    SkipSpace(line, &pos);
    if (pos >= line.size()) return true;
    if (line[pos] != ';') {
      *err = "expected ';'";
      return false;
    }
    ++pos;
  }
}

}  // namespace perfbench
