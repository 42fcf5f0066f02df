#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Reserve() {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Finish(uint64_t id, const char* name, uint64_t parent,
                    uint64_t request, int64_t start_ns, int64_t end_ns) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, request, start_ns, end_ns});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
                       uint64_t parent)
    : tracer_(tracer),
      name_(name),
      request_(request),
      parent_(parent),
      start_ns_(NowNs()) {
  if (tracer_ != nullptr) id_ = tracer_->Reserve();
}

double ScopedSpan::Stop() {
  if (end_ns_ < 0) {
    end_ns_ = NowNs();
    if (tracer_ != nullptr) {
      tracer_->Finish(id_, name_, parent_, request_, start_ns_, end_ns_);
    }
  }
  return static_cast<double>(end_ns_ - start_ns_) / 1e6;
}

std::vector<double> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // everything before cursor is already counted
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(std::max<int64_t>(hi - lo - covered, 0));
  }
  return self;
}

std::map<std::string, double> SelfMsByLayer(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  const std::vector<double> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string name = spans[i].name;
    out[name.substr(0, name.find('.'))] += self[i] / 1e6;
  }
  return out;
}

}  // namespace perfbench
