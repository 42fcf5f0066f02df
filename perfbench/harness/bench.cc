#include "bench.h"

#include <dirent.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <set>

#include "query/eval_nav.h"
#include "stats.h"
#include "xml/serializer.h"

namespace perfbench {

namespace {

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// sched_setaffinity on every thread of the process; threads started later
/// inherit their creator's set.
void SetProcessAffinity(const cpu_set_t& set) {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    ::sched_setaffinity(0, sizeof(set), &set);
    return;
  }
  while (const dirent* entry = ::readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) ::sched_setaffinity(tid, sizeof(set), &set);
  }
  ::closedir(dir);
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = {value, unit};
}

void Report::Detail(const std::string& key, std::string json) {
  std::lock_guard<std::mutex> lock(mu_);
  details_.emplace_back(key, std::move(json));
}

void Report::Fail(const std::string& what) {
  const uint64_t n = failed_.fetch_add(1) + 1;
  if (n <= 20) std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
}

std::string Report::MetricsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  for (const auto& [name, metric] : metrics_) {
    if (out.size() > 1) out += ',';
    out += "\"" + name + "\":{\"value\":" + FormatNumber(metric.first) +
           ",\"unit\":\"" + metric.second + "\"}";
  }
  return out + "}";
}

std::string Report::DetailsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  for (const auto& [key, json] : details_) {
    if (out.size() > 1) out += ',';
    out += "\"" + key + "\":" + json;
  }
  return out + "}";
}

uint64_t Run::StreamSeed(std::string_view stream) const {
  // FNV-1a of the stream name, mixed with the run seed.
  uint64_t h = 1469598103934665603ULL;
  for (char c : stream) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  SplitMix64 mix(seed ^ h);
  return mix.Next();
}

void Run::Narrow() {
  if (home_cpu_ < 0) {
    if (::sched_getaffinity(0, sizeof(cpus_), &cpus_) != 0) return;
    home_cpu_ = ::sched_getcpu();
    if (home_cpu_ < 0) return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(home_cpu_, &one);
  SetProcessAffinity(one);
}

void Run::Widen() {
  if (home_cpu_ >= 0) SetProcessAffinity(cpus_);
}

Answer AnswerQuery(Run* run, const vpbn::query::QueryEngine& engine,
                   const std::string& path, uint64_t request,
                   uint64_t parent,
                   const vpbn::query::ExecOverrides& overrides,
                   bool keep_values) {
  Answer answer;
  Tracer* tracer = &run->tracer;
  ScopedSpan prepare_span(tracer, "query.Prepare", request, parent);
  auto prepared = engine.Prepare(path);
  answer.prepare_ms = prepare_span.Stop();
  if (!prepared.ok()) return answer;

  ScopedSpan execute_span(tracer, "query.Execute", request, parent);
  auto result = engine.Execute(*prepared, overrides);
  answer.execute_ms = execute_span.Stop();
  if (!result.ok()) return answer;

  std::deque<std::string> owned;
  ScopedSpan render_span(tracer, "query.Render", request, parent);
  std::vector<std::string_view> views = engine.StringValueViews(*result,
                                                                &owned);
  answer.render_ms = render_span.Stop();

  answer.ok = true;
  answer.count = views.size();
  answer.stats = result->stats();
  if (keep_values) answer.values.assign(views.begin(), views.end());
  return answer;
}

vpbn::Result<std::vector<std::string>> NavStoredValues(
    const vpbn::xml::Document& doc, std::string_view path) {
  VPBN_ASSIGN_OR_RETURN(std::vector<vpbn::xml::NodeId> nodes,
                        vpbn::query::EvalNav(doc, path));
  std::vector<std::string> values;
  values.reserve(nodes.size());
  for (vpbn::xml::NodeId id : nodes) {
    values.push_back(vpbn::xml::SerializeNode(doc, id));
  }
  return values;
}

vpbn::Result<std::vector<std::string>> NavViewValues(
    const vpbn::virt::Materialized& m, std::string_view path) {
  VPBN_ASSIGN_OR_RETURN(std::vector<vpbn::xml::NodeId> nodes,
                        vpbn::query::EvalNav(m.doc, path));
  // A virtual node shared below several parents materializes as several
  // copies but is one member of the virtual result.
  std::set<std::pair<uint32_t, uint32_t>> seen;
  std::vector<std::string> values;
  for (vpbn::xml::NodeId id : nodes) {
    const vpbn::virt::VirtualNode& v = m.provenance[id];
    if (seen.insert({static_cast<uint32_t>(v.node),
                     static_cast<uint32_t>(v.vtype)})
            .second) {
      values.push_back(vpbn::xml::SerializeNode(m.doc, id));
    }
  }
  return values;
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

std::string JsonNumberMap(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ',';
    out += "\"" + key + "\":" + FormatNumber(value);
  }
  return out + "}";
}

std::string JsonNumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) {
    if (out.size() > 1) out += ',';
    out += FormatNumber(v);
  }
  return out + "]";
}

}  // namespace perfbench
