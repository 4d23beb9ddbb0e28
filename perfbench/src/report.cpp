#include "report.h"

#include <dirent.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>> kEndToEndNames = {
    {"setup_s", "s"},          {"moves_per_s", "moves/s"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms"},
    {"goodput_jps", "jobs/s"}, {"ok_frac", "ratio"},
    {"area_ratio", "ratio"},   {"hpwl_gm_um", "um"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayerNames = {
    {"kernel.lcs_naive_us", "us"},
    {"kernel.lcs_fenwick_us", "us"},
    {"kernel.lcs_veb_us", "us"},
    {"kernel.contour_pack_us", "us"},
    {"decode.moves", "count"},
    {"decode.seqpair_ns_per_move", "ns"},
    {"decode.seqpair_resweep_frac", "ratio"},
    {"decode.bstar_full_ns_per_move", "ns"},
    {"decode.bstar_partial_ns_per_move", "ns"},
    {"decode.bstar_repack_frac", "ratio"},
    {"decode.polish_ns_per_move", "ns"},
    {"cost.proposes", "count"},
    {"cost.propose_ns", "ns"},
    {"cost.commit_ns", "ns"},
    {"cost.rollback_ns", "ns"},
    {"cost.moved_per_propose", "count"},
    {"cost.propose_thermal_ns", "ns"},
    {"engine.flat-bstar.moves_per_s", "moves/s"},
    {"engine.flat-bstar.wall_share", "ratio"},
    {"engine.seqpair.moves_per_s", "moves/s"},
    {"engine.seqpair.wall_share", "ratio"},
    {"engine.slicing.moves_per_s", "moves/s"},
    {"engine.slicing.wall_share", "ratio"},
    {"engine.hbstar.moves_per_s", "moves/s"},
    {"engine.hbstar.wall_share", "ratio"},
    {"engine.moves_tried", "count"},
    {"engine.sweeps", "count"},
    {"runtime.race_speedup", "x"},
    {"runtime.tempering_speedup", "x"},
    {"runtime.slice_imbalance", "ratio"},
    {"runtime.tempering_rounds", "count"},
    {"runtime.exchanges_accepted", "count"},
    {"runtime.reseeds", "count"},
    {"io.corpus_gen_ms", "ms"},
    {"io.parse_us", "us"},
    {"io.cache_key_ns", "ns"},
    {"io.result_write_us", "us"},
    {"io.result_parse_us", "us"},
    {"cache.entries", "count"},
    {"cache.fetch_mem_us", "us"},
    {"cache.fetch_disk_us", "us"},
    {"cache.store_us", "us"},
    {"serve.completed", "count"},
    {"serve.admit_ms_p50", "ms"},
    {"serve.hit_ms_p50", "ms"},
    {"serve.hit_ms_p99", "ms"},
    {"serve.miss_ms_p50", "ms"},
    {"serve.miss_ms_p99", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.daemon_fds_end", "count"},
    {"serve.daemon_threads_end", "count"},
    {"serve.daemon_rss_mb", "MB"},
    {"gen.lag_ms_p99", "ms"},
    {"self.io_ms", "ms"},
    {"self.kernel_ms", "ms"},
    {"self.decode_ms", "ms"},
    {"self.cost_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.runtime_ms", "ms"},
    {"self.cache_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_frac", "ratio"},
};

int emitResult(const RunOutput& out, bool trace) {
  for (const std::string& n : out.notes) std::fprintf(stderr, "%s\n", n.c_str());
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }
  const auto& names = trace ? kPerLayerNames : kEndToEndNames;
  const auto& metrics = trace ? out.perLayer : out.endToEnd;
  bool complete = true;
  std::ostringstream json;
  json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const Metric* m = nullptr;
    for (const Metric& x : metrics) {
      if (x.name == name) m = &x;
    }
    if (!m || m->unit != unit || !std::isfinite(m->value)) {
      std::fprintf(stderr, "perfbench: metric %s missing or not finite\n",
                   name.c_str());
      complete = false;
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m->value);
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  json << "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return out.failed == 0 && out.attempted > 0 && complete ? 0 : 1;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix m(seed ^ (salt * 0xd1b54a32d192ed03ull));
  return m.next();
}

ProcGauges readProcGauges(int pid) {
  ProcGauges g;
  const std::string base =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    std::istringstream in(line);
    std::string key;
    double v = 0.0;
    in >> key >> v;
    if (key == "VmHWM:") g.vmHwmMb = v / 1024.0;
    if (key == "VmRSS:") g.vmRssMb = v / 1024.0;
    if (key == "Threads:") g.threads = static_cast<std::uint64_t>(v);
  }
  std::ifstream stat(base + "/stat");
  if (std::getline(stat, line)) {
    // Fields after the parenthesised command name: state is field 3, utime
    // and stime (clock ticks) fields 14 and 15.
    std::istringstream in(line.substr(line.rfind(')') + 1));
    std::string field;
    double ticks = 0.0;
    for (int f = 3; f <= 15 && in >> field; ++f) {
      if (f >= 14) ticks += std::stod(field);
    }
    g.cpuS = ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  if (DIR* d = ::opendir((base + "/fd").c_str())) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.') ++g.fds;
    }
    ::closedir(d);
  }
  return g;
}

}  // namespace perfbench
