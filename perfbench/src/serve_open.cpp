// serve-open: the als_serve daemon under an open-loop Poisson arrival
// schedule, driven over its Unix socket from this one process.
//
// Threads and connections (at most four each): the main thread sends the
// pipelined jobs on two persistent connections, one reader thread per
// persistent connection collects QUEUED/RESULT/DONE, and one thread sends
// the one-shot jobs, each on a fresh connection opened after the previous
// one closed, as a command-line client would.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "io/benchmark_format.h"
#include "io/corpus.h"
#include "io/serve_protocol.h"
#include "layers.h"
#include "runtime/portfolio.h"
#include "runtime/tempering.h"
#include "runtime/thread_pool.h"
#include "schedule.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- the workload definition (see WORKLOADS.md) -------------------------
/// Sweeps per job (all restarts), per circuit in allCorpusCircuits() order
/// (apte, xerox, hp, ami33, ami49): a miss costs 10-30 ms of placement work
/// (ami49 on the slicing backend about 45 ms), so even the cheapest miss is
/// mostly computation and not thread wake-ups (WORKLOADS.md).
constexpr std::size_t kServeSweeps[] = {64, 64, 56, 12, 8};
constexpr std::size_t kServeRestarts = 2;
constexpr std::size_t kServeWorkers = 2;
/// Goodput latency limit [ms]: about twice the p99 latency measured when
/// the workload was introduced (WORKLOADS.md), so goodput falls once the
/// tail grows to twice its length.
constexpr double kLatencyLimitMs = 90.0;
constexpr std::size_t kSetupReps = 6;  ///< trial set-ups before and after
constexpr double kDrainTimeoutS = 60.0;

// ---- socket plumbing ------------------------------------------------------
int connectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool sendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool readLine(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line.assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        compact();
        return true;
      }
      if (!fill()) return false;
    }
  }
  bool readExact(std::size_t n, std::string& out) {
    while (buf_.size() - pos_ < n) {
      if (!fill()) return false;
    }
    out.assign(buf_, pos_, n);
    pos_ += n;
    compact();
    return true;
  }

 private:
  bool fill() {
    char chunk[65536];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  void compact() {
    if (pos_ > (1u << 16)) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

std::vector<std::string> splitWords(const std::string& line) {
  std::vector<std::string> words;
  std::size_t i = 0;
  while (i < line.size()) {
    const std::size_t j = line.find(' ', i);
    words.push_back(line.substr(i, j == std::string::npos ? j : j - i));
    if (j == std::string::npos) break;
    i = j + 1;
  }
  return words;
}

struct DaemonStats {
  std::uint64_t submitted = 0, completed = 0, hits = 0, misses = 0,
                cancelled = 0, rejected = 0;
};

bool parseStats(const std::string& line, DaemonStats& s) {
  const auto w = splitWords(line);
  if (w.size() < 7 || w[0] != "STATS") return false;
  try {
    s.submitted = std::stoull(w[1]);
    s.completed = std::stoull(w[2]);
    s.hits = std::stoull(w[3]);
    s.misses = std::stoull(w[4]);
    s.cancelled = std::stoull(w[5]);
    s.rejected = std::stoull(w[6]);
  } catch (...) {
    return false;
  }
  return true;
}

/// One STATS round trip on a fresh connection.
bool queryStats(const std::string& sock, DaemonStats& s) {
  const int fd = connectUnix(sock);
  if (fd < 0) return false;
  LineReader reader(fd);
  std::string line;
  const bool ok = sendAll(fd, "STATS\n") && reader.readLine(line) &&
                  parseStats(line, s);
  ::close(fd);
  return ok;
}

/// The daemon child process; the destructor kills and reaps a daemon that
/// was not shut down cleanly.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  /// Spawns the daemon and waits until it answers STATS.
  bool start(const std::string& bin, const std::string& sock,
             const std::string& cacheDir, const std::string& log,
             std::string* error) {
    sock_ = sock;
    std::vector<std::string> argv = {bin,        "--socket", sock,
                                     "--workers", std::to_string(kServeWorkers),
                                     "--queue",  "65536",
                                     "--cache-dir", cacheDir};
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, cargv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      *error = "cannot spawn " + bin + ": " + std::strerror(rc);
      return false;
    }
    const auto t0 = Clock::now();
    DaemonStats s;
    while (since(t0) < 20.0) {
      if (queryStats(sock_, s)) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "daemon exited during start-up";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *error = "daemon did not answer STATS within 20 s";
    return false;
  }

  /// SHUTDOWN (drains accepted jobs) and reaps; false on an unclean exit.
  bool stop() {
    if (pid_ <= 0) return true;
    const int fd = connectUnix(sock_);
    if (fd >= 0) {
      LineReader reader(fd);
      std::string line;
      if (sendAll(fd, "SHUTDOWN\n")) reader.readLine(line);
      ::close(fd);
    }
    const auto t0 = Clock::now();
    int status = 0;
    while (since(t0) < 30.0) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return false;
  }

  int pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::string sock_;
};

/// Client-side record of one job.  Each record is written by exactly one
/// thread (its sender, then its connection's reader) and read by the main
/// thread only after `completed` says it is done.
struct JobRecord {
  OpenLoopSample t;
  int conn = -1;  ///< persistent connection index, -1 for one-shot
  double queuedS = -1.0;
  std::string status;   ///< hit | miss | cancelled | deadline | (empty)
  std::string keyHex;   ///< from QUEUED
  std::string payload;  ///< ALSRESULT text
  std::string error;
};

struct Schedule {
  ServeSchedule gen;
  std::vector<std::string> messages;  ///< per arrival
};

Schedule buildSchedule(std::uint64_t seed, double seconds,
                       const std::vector<std::string>& texts) {
  Schedule s;
  s.gen = makeServeSchedule(seed, seconds, texts.size());
  s.messages.reserve(s.gen.arrivals.size());
  for (std::size_t i = 0; i < s.gen.arrivals.size(); ++i) {
    const ServeKey& k = s.gen.keys[s.gen.arrivals[i].key];
    s.messages.push_back(jobMessage("j" + std::to_string(i), k,
                                    texts[k.circuit], kServeSweeps[k.circuit],
                                    kServeRestarts));
  }
  return s;
}

als::EngineOptions keyOptions(const ServeKey& k) {
  als::EngineOptions o;
  o.maxSweeps = kServeSweeps[k.circuit];
  o.numRestarts = kServeRestarts;
  o.seed = k.seed;
  o.tempering = k.tempering;
  o.numThreads = 1;
  o.timeLimitSec = 0.0;
  return o;
}

/// Shared state of the open-loop run.
struct Run {
  std::vector<JobRecord> jobs;
  Clock::time_point start;
  std::atomic<std::size_t> completed{0};
  Tracer* tracer = nullptr;
  double traceStart = 0.0;
  std::mutex doneMutex;
  std::condition_variable doneCv;

  double now() const { return since(start); }
  /// Sleeps until `dueS`; a late wake-up is charged to the job, whose
  /// latency runs from its due time (`gen.lag_ms_p99` reports the lag).
  void waitUntil(double dueS) const {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(dueS)));
  }
  void finish(std::size_t i) {
    JobRecord& r = jobs[i];
    r.t.doneS = now();
    r.t.ok = r.error.empty() && (r.status == "hit" || r.status == "miss");
    if (i % 2 == 1 && tracer->enabled()) {
      tracer->count("serve.status." + (r.t.ok ? r.status : "failed"), 1);
      const std::uint32_t root = tracer->record(
          "job", i, 0, traceStart + r.t.dueS, traceStart + r.t.doneS);
      tracer->record("serve", i, root, traceStart + r.t.sentS,
                     traceStart + r.t.doneS);
      if (r.t.ok) {
        const double t0 = tracer->now();
        als::EngineBackend b;
        als::EngineResult parsed;
        als::parseResultText(r.payload, b, parsed);
        tracer->record("io", i, root, t0, tracer->now());
      }
    }
    if (completed.fetch_add(1) + 1 == jobs.size()) {
      std::lock_guard<std::mutex> lock(doneMutex);
      doneCv.notify_all();
    }
  }
};

std::size_t tagIndex(const std::string& tag, std::size_t n) {
  if (tag.size() < 2 || tag[0] != 'j') return n;
  try {
    const std::size_t i = std::stoul(tag.substr(1));
    return i < n ? i : n;
  } catch (...) {
    return n;
  }
}

/// Handles one reply line (with its payload); returns false when the
/// stream is broken.  `*finished` says whether a job completed.
bool readReply(LineReader& reader, Run& run, bool* finished) {
  std::string line;
  if (!reader.readLine(line)) return false;
  const auto w = splitWords(line);
  if (w.size() < 2) return true;
  const std::size_t n = run.jobs.size();
  const std::size_t i = tagIndex(w[1], n);
  *finished = false;
  if (w[0] == "QUEUED" && i < n) {
    run.jobs[i].queuedS = run.now();
    if (w.size() > 2) run.jobs[i].keyHex = w[2];
  } else if ((w[0] == "REJECTED" || w[0] == "ERROR") && i < n) {
    run.jobs[i].error = line;
    run.finish(i);
    *finished = true;
  } else if (w[0] == "RESULT" && i < n && w.size() == 4) {
    JobRecord& r = run.jobs[i];
    r.status = w[2];
    std::size_t bytes = 0;
    try {
      bytes = std::stoul(w[3]);
    } catch (...) {
      return false;
    }
    if (!reader.readExact(bytes, r.payload)) return false;
    if (!reader.readLine(line) || line != "DONE " + w[1]) return false;
    run.finish(i);
    *finished = true;
  }
  return true;
}

struct ServeLayerTimes {
  std::vector<double> admitMs, hitMs, missMs, lagMs;
};

}  // namespace

void runServeOpen(const Args& args, RunOutput& out) {
  Tracer tracer(args.trace);
  const std::vector<als::CorpusCircuit> corpus = als::allCorpusCircuits();
  if (corpus.size() != std::size(kServeSweeps)) {
    out.fail("serve-open expects one sweep budget per MCNC circuit");
    ++out.attempted;
    return;
  }
  std::vector<std::string> texts;
  std::vector<als::Circuit> circuits;
  for (als::CorpusCircuit c : corpus) {
    texts.emplace_back(als::corpusText(c));
    als::ParseResult parsed = als::parseBenchmark(texts.back());
    if (!parsed.ok()) out.fail("mcnc corpus parse: " + parsed.error);
    circuits.push_back(std::move(parsed.circuit));
  }
  const std::string work = args.outDir + "/serve";
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work, ec);
  const std::string sock = work + "/als.sock";

  // Set-up: spawn a daemon on a fresh cache directory until it answers
  // STATS, and generate the job texts.  It is timed several times before
  // the schedule (the last daemon serves) and as often after it, so the
  // median does not rest on one moment of the host.
  std::vector<double> setupS;
  const auto setUp = [&](Daemon& d, Schedule& s) {
    const std::string cacheDir = work + "/cache" + std::to_string(setupS.size());
    const auto t0 = Clock::now();
    std::string error;
    {
      Tracer::Scope span(tracer, "serve", 0);
      if (!d.start(args.serveBin, sock, cacheDir, work + "/daemon.log",
                   &error)) {
        out.fail(error);
        return false;
      }
    }
    {
      Tracer::Scope span(tracer, "io", 0);
      s = buildSchedule(args.seed, args.seconds, texts);
    }
    setupS.push_back(since(t0));
    return true;
  };
  const auto trialSetUps = [&] {
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
      Daemon trial;
      Schedule spare;
      if (!setUp(trial, spare)) return false;
      if (!trial.stop()) out.fail("set-up daemon did not exit cleanly");
    }
    return true;
  };
  Daemon daemon;
  Schedule sched;
  if (!trialSetUps() || !setUp(daemon, sched)) {
    ++out.attempted;
    return;
  }

  const std::size_t n = sched.gen.arrivals.size();
  Run run;
  run.jobs.resize(n);
  run.tracer = &tracer;
  DaemonStats before, after;
  if (!queryStats(sock, before)) out.fail("STATS before the schedule failed");
  const double cpuBefore = readProcGauges(daemon.pid()).cpuS;

  int conns[2] = {connectUnix(sock), connectUnix(sock)};
  if (conns[0] < 0 || conns[1] < 0) {
    out.fail("cannot open the persistent connections");
    ++out.attempted;
    for (int fd : conns) {
      if (fd >= 0) ::close(fd);
    }
    return;
  }
  run.traceStart = tracer.now();
  run.start = Clock::now();
  std::vector<std::thread> threads;
  for (int k = 0; k < 2; ++k) {
    threads.emplace_back([&run, fd = conns[k], k] {
      LineReader reader(fd);
      bool finished = false;
      while (readReply(reader, run, &finished)) {
      }
    });
  }
  threads.emplace_back([&] {  // one-shot client
    for (std::size_t i = 0; i < n; ++i) {
      if (!sched.gen.arrivals[i].oneShot) continue;
      JobRecord& r = run.jobs[i];
      r.t.dueS = sched.gen.arrivals[i].dueS;
      run.waitUntil(r.t.dueS);
      r.t.sentS = run.now();
      const int fd = connectUnix(sock);
      if (fd < 0 || !sendAll(fd, sched.messages[i])) {
        r.error = "one-shot connection failed";
        if (fd >= 0) ::close(fd);
        run.finish(i);
        continue;
      }
      LineReader reader(fd);
      bool finished = false;
      while (!finished && readReply(reader, run, &finished)) {
      }
      if (!finished) {
        r.error = "one-shot connection closed before DONE";
        run.finish(i);
      }
      ::close(fd);
    }
  });
  std::size_t nextConn = 0;
  for (std::size_t i = 0; i < n; ++i) {  // pipelined sender
    if (sched.gen.arrivals[i].oneShot) continue;
    JobRecord& r = run.jobs[i];
    r.t.dueS = sched.gen.arrivals[i].dueS;
    run.waitUntil(r.t.dueS);
    r.t.sentS = run.now();
    r.conn = static_cast<int>(nextConn++ % 2);
    const int fd = conns[r.conn];
    const std::uint32_t span =
        i % 2 == 1 ? tracer.begin("io", i) : 0;  // traced jobs only
    const bool sent = sendAll(fd, sched.messages[i]);
    tracer.end(span);
    if (!sent) {
      r.error = "send failed";
      run.finish(i);
    }
  }
  {
    std::unique_lock<std::mutex> lock(run.doneMutex);
    run.doneCv.wait_for(lock, std::chrono::duration<double>(kDrainTimeoutS),
                        [&] { return run.completed.load() == n; });
  }
  const double drainedS = run.now();
  const bool drained = run.completed.load() == n;
  if (!queryStats(sock, after)) out.fail("STATS after the schedule failed");
  const ProcGauges gauges = readProcGauges(daemon.pid());
  for (int fd : conns) ::shutdown(fd, SHUT_RDWR);  // wakes the readers
  const bool stopped = daemon.stop();  // its exit also ends one-shot reads
  for (std::thread& t : threads) t.join();
  for (int fd : conns) ::close(fd);
  if (!stopped) out.fail("daemon did not shut down cleanly");
  tracer.setEnabled(false);
  trialSetUps();
  tracer.setEnabled(args.trace);
  if (!drained) {
    out.fail(std::to_string(n - run.completed.load()) +
             " jobs lost (no reply within the drain timeout)");
    return;  // latencies of lost jobs are undefined: report no metrics
  }

  // ---- correctness: every reply, then every distinct key vs the oracle ---
  out.attempted += n;
  std::vector<const std::string*> keyPayload(sched.gen.keys.size(), nullptr);
  std::vector<std::string> keyError(sched.gen.keys.size());
  double missMoves = 0.0;
  std::string scratch;
  for (std::size_t i = 0; i < n; ++i) {
    JobRecord& r = run.jobs[i];
    const std::size_t k = sched.gen.arrivals[i].key;
    const ServeKey& key = sched.gen.keys[k];
    std::string err = r.error;
    if (err.empty() && !r.t.ok) err = "status " + r.status;
    scratch.clear();
    if (err.empty() &&
        r.keyHex != als::makeCacheKey(texts[key.circuit], key.backend,
                                      keyOptions(key), scratch)
                        .hex()) {
      err = "QUEUED cache key differs from the in-process key";
    }
    als::EngineBackend backend;
    als::EngineResult parsed;
    if (err.empty()) {
      const std::string perr = als::parseResultText(r.payload, backend, parsed);
      if (!perr.empty()) err = "ALSRESULT: " + perr;
    }
    if (err.empty()) err = checkPlacement(circuits[key.circuit], parsed.placement);
    if (err.empty() && keyPayload[k] && *keyPayload[k] != r.payload) {
      err = "payload differs from an earlier reply for the same key";
    }
    if (!err.empty()) {
      r.t.ok = false;
      out.fail("job " + std::to_string(i) + ": " + err);
      continue;
    }
    if (!keyPayload[k]) keyPayload[k] = &r.payload;
    if (r.status == "miss") missMoves += static_cast<double>(parsed.movesTried);
  }

  std::vector<als::EngineResult> oracle(sched.gen.keys.size());
  std::vector<als::EngineBackend> oracleBackend(sched.gen.keys.size());
  std::vector<double> oracleS(sched.gen.keys.size(), 0.0);
  {
    Tracer::Scope s(tracer, "runtime", 3ull << 40);
    als::ThreadPool pool(4);
    pool.parallelFor(sched.gen.keys.size(), [&](std::size_t k) {
      const ServeKey& key = sched.gen.keys[k];
      const auto t0 = Clock::now();
      if (key.tempering) {
        als::TemperingOutcome o = als::TemperingRunner().run(
            circuits[key.circuit], key.backend, keyOptions(key));
        oracle[k] = std::move(o.result);
        oracleBackend[k] = o.backend;
      } else {
        oracle[k] = als::PortfolioRunner().run(circuits[key.circuit],
                                               key.backend, keyOptions(key));
        oracleBackend[k] = key.backend;
      }
      oracleS[k] = since(t0);
    });
  }
  std::vector<double> areas, hpwls;
  std::vector<KeyedResult> keyed;
  for (std::size_t k = 0; k < sched.gen.keys.size(); ++k) {
    const ServeKey& key = sched.gen.keys[k];
    std::string text;
    als::writeResultText(oracleBackend[k], oracle[k], text);
    ++out.attempted;
    if (!keyPayload[k]) {
      out.fail("key " + std::to_string(k) + ": no correct reply to check");
      continue;
    }
    if (*keyPayload[k] != text) {
      out.fail("key " + std::to_string(k) +
               ": served bytes differ from the in-process oracle");
      continue;
    }
    const als::Circuit& c = circuits[key.circuit];
    areas.push_back(static_cast<double>(oracle[k].placement.boundingBox().area()) /
                    static_cast<double>(c.totalModuleArea()));
    hpwls.push_back(static_cast<double>(oracle[k].hpwl) * 1e-3);
    if (args.trace) {
      keyed.push_back({&texts[key.circuit], key.backend, keyOptions(key),
                       oracle[k]});
    }
  }

  // ---- end-to-end metrics -------------------------------------------------
  std::vector<double> latency, untracedLat, tracedLat;
  ServeLayerTimes lt;
  std::size_t good = 0;
  double lastDoneS = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobRecord& r = run.jobs[i];
    const double ms = r.t.latencyMs();
    lastDoneS = std::max(lastDoneS, r.t.doneS);
    latency.push_back(ms);
    (i % 2 == 1 ? tracedLat : untracedLat).push_back(ms);
    good += r.t.ok && ms <= kLatencyLimitMs;
    lt.lagMs.push_back(r.t.lagMs());
    if (r.queuedS >= 0) lt.admitMs.push_back((r.queuedS - r.t.sentS) * 1e3);
    if (r.status == "hit") lt.hitMs.push_back(ms);
    if (r.status == "miss") lt.missMs.push_back(ms);
  }
  if (!percentileResolved(n, 0.99)) {
    out.fail("only " + std::to_string(samplesBeyond(n, 0.99)) +
             " samples beyond p99 (need 10)");
  }
  const FailFraction ff{out.failed, out.attempted};
  const GeoMean area = geomean(areas), hpwl = geomean(hpwls);
  if (!area.ok || !hpwl.ok) out.fail("area/HPWL geomean over a non-positive value");
  const double daemonCpuS = gauges.cpuS - cpuBefore;
  if (daemonCpuS <= 0) out.fail("no daemon CPU time read from /proc/<pid>/stat");
  out.addE2e("setup_s", median(setupS), "s");
  // The daemon's speed: moves of the computed (miss) results per second of
  // CPU time the daemon used from the schedule's start until it drained,
  // hits and protocol work included.  Below capacity the schedule sets the
  // wall time, and the latencies below carry the waits.
  out.addE2e("moves_per_s", daemonCpuS > 0 ? missMoves / daemonCpuS : 0,
             "moves/s");
  out.addE2e("latency_p50_ms", percentile(latency, 0.5), "ms");
  out.addE2e("latency_p99_ms", percentile(latency, 0.99), "ms");
  // Jobs correct within the limit, per second from the schedule's start to
  // the last DONE.
  out.addE2e("goodput_jps", static_cast<double>(good) / lastDoneS, "jobs/s");
  out.addE2e("ok_frac", ff.ok(), "ratio");
  out.addE2e("area_ratio", area.value, "ratio");
  out.addE2e("hpwl_gm_um", hpwl.value, "um");
  out.addE2e("peak_rss_mb", gauges.vmHwmMb, "MB");

  const std::uint64_t completed = after.completed - before.completed;
  const std::uint64_t hits = after.hits - before.hits;
  char note[512];
  std::snprintf(
      note, sizeof note,
      "perfbench: serve-open %zu jobs at %.1f jobs/s over %.1f s (%zu keys, "
      "%zu one-shot); p99 over n=%zu (%zu beyond); drained at %.2f s; "
      "%zu within %.0f ms; hits %llu/%llu completed; daemon fds=%llu "
      "threads=%llu hwm=%.1f MB",
      n, kArrivalRate, args.seconds, sched.gen.keys.size(),
      static_cast<std::size_t>(std::count_if(
          sched.gen.arrivals.begin(), sched.gen.arrivals.end(),
          [](const ServeArrival& a) { return a.oneShot; })),
      n, samplesBeyond(n, 0.99), drainedS, good, kLatencyLimitMs,
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(gauges.fds),
      static_cast<unsigned long long>(gauges.threads), gauges.vmHwmMb);
  out.notes.push_back(note);
  std::snprintf(note, sizeof note,
                "perfbench: serve-open hit p50 %.3f ms; miss p50 %.3f p99 "
                "%.3f ms; lag p99 %.3f ms; daemon CPU %.2f s",
                percentile(lt.hitMs, 0.5), percentile(lt.missMs, 0.5),
                percentile(lt.missMs, 0.99), percentile(lt.lagMs, 0.99),
                daemonCpuS);
  out.notes.push_back(note);
  if (!args.trace) return;

  // ---- per-layer metrics ----------------------------------------------------
  const double plain = median(untracedLat), traced = median(tracedLat);
  out.addLayer("trace.overhead_frac", plain > 0 ? (traced - plain) / plain : 0,
               "ratio");
  std::vector<EngineTally> tally(als::allBackends().size());
  double sweeps = 0.0, allMoves = 0.0;
  for (std::size_t k = 0; k < sched.gen.keys.size(); ++k) {
    EngineTally& t = tally[backendIndex(sched.gen.keys[k].backend)];
    t.moves += static_cast<double>(oracle[k].movesTried);
    t.seconds += oracleS[k];
    sweeps += static_cast<double>(oracle[k].sweeps);
    allMoves += static_cast<double>(oracle[k].movesTried);
  }
  addEngineRows(tally, allMoves, sweeps, out);
  out.addLayer("serve.completed", static_cast<double>(completed), "count");
  out.addLayer("serve.admit_ms_p50", percentile(lt.admitMs, 0.5), "ms");
  out.addLayer("serve.hit_ms_p50", percentile(lt.hitMs, 0.5), "ms");
  out.addLayer("serve.hit_ms_p99", percentile(lt.hitMs, 0.99), "ms");
  out.addLayer("serve.miss_ms_p50", percentile(lt.missMs, 0.5), "ms");
  out.addLayer("serve.miss_ms_p99", percentile(lt.missMs, 0.99), "ms");
  out.addLayer("serve.hit_ratio",
               completed ? static_cast<double>(hits) / completed : 0, "ratio");
  out.addLayer("serve.rejected",
               static_cast<double>(after.rejected - before.rejected), "count");
  out.addLayer("serve.daemon_fds_end", static_cast<double>(gauges.fds), "count");
  out.addLayer("serve.daemon_threads_end", static_cast<double>(gauges.threads),
               "count");
  out.addLayer("serve.daemon_rss_mb", gauges.vmRssMb, "MB");
  out.addLayer("gen.lag_ms_p99", percentile(lt.lagMs, 0.99), "ms");

  const als::Circuit n300 = als::loadCorpusCircuit(als::CorpusCircuit::N300);
  LayerInputs in;
  in.kernelCircuit = &n300;
  in.decodeCircuit = &circuits.back();
  in.thermalCircuit = &circuits.back();
  for (const std::string& t : texts) in.circuitTexts.push_back(&t);
  in.results = std::move(keyed);
  in.cacheDir = args.outDir + "/layer-cache";
  runLayerReplays(in, args.seed, tracer, out);
  addSelfTimes(tracer, out);
  fillUncrossedLayers(out);
  tracer.writeJsonLines(args.outDir + "/trace-serve-open.jsonl");
}

}  // namespace perfbench
