#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::map<std::string, double> selfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double curLo = 0.0, curHi = -1.0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (open && lo <= curHi) {
          curHi = std::max(curHi, hi);
        } else {
          if (open) covered += curHi - curLo;
          curLo = lo;
          curHi = hi;
          open = true;
        }
      }
      if (open) covered += curHi - curLo;
    }
    self[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t job,
                            std::uint32_t parent) {
  if (!enabled()) return 0;
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.job = job;
  s.start = t;
  s.end = t;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end = t;
}

std::uint32_t Tracer::record(const char* name, std::uint64_t job,
                             std::uint32_t parent, double start, double end) {
  if (!enabled()) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.job = job;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::count(const std::string& name, double delta) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += delta;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::writeJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"span\": \"%s\", \"id\": %u, \"parent\": %u, \"job\": "
                 "%llu, \"start\": %.9f, \"end\": %.9f}\n",
                 s.name.c_str(), s.id, s.parent,
                 static_cast<unsigned long long>(s.job), s.start, s.end);
  }
  for (const auto& [name, v] : counts_) {
    std::fprintf(f, "{\"count\": \"%s\", \"value\": %.17g}\n", name.c_str(), v);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
