// als_serve — placement-as-a-service daemon over a local stream socket.
//
// Thin socket front-end for the in-process serve engine (runtime/serve.h):
// accepts connections on an AF_UNIX socket, speaks the line-delimited
// "ALSSERVE 1" protocol documented in io/serve_protocol.h, and forwards
// jobs into a ServeEngine whose worker crew executes them against the
// content-addressed result cache.  Everything placement-related — admission
// control, scheduling, cancellation, caching, the bit-identity guarantees —
// lives in the library; this file is sockets, framing and thread plumbing
// only, so tests/serve_test.cpp can pin the engine without a socket in the
// loop and tools/als_replay can drive this binary end to end.
//
//   als_serve --socket /tmp/als.sock --workers 4 --cache-dir /tmp/als-cache
//
// One handler thread per connection, joined by the accept loop once its
// client is done (the fd closes then, or when the connection's last
// in-flight job reports); running out of descriptors makes accept() back
// off, not shut the daemon down.  A per-connection write mutex keeps the
// worker threads' PROGRESS/RESULT lines and the handler's QUEUED/STATS
// replies whole (the protocol is tagged, so interleaving across jobs is
// fine — interleaving within a line is not).  SHUTDOWN drains every
// accepted job before the process exits, so a client that saw QUEUED
// always sees its RESULT.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/line_stream.h"
#include "runtime/serve.h"
#include "util/fault_injection.h"

namespace {

using namespace als;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket <path> [options]\n"
               "  --socket <path>        AF_UNIX socket path (required; a stale\n"
               "                         file at the path is replaced)\n"
               "  --workers <n>          job-executing threads (default 2)\n"
               "  --queue <n>            job slots, pending+running; submissions\n"
               "                         beyond it are REJECTED (default 16)\n"
               "  --progress-interval <n> sweeps per restart slice between\n"
               "                         PROGRESS events (default 32)\n"
               "  --cache-dir <dir>      persisted result store (default: memory\n"
               "                         only)\n"
               "  --cache-cap <n>        result cache size cap, memory+disk\n"
               "                         entries (default 0 = unbounded)\n"
               "  --faults <spec>        arm deterministic fault injection on the\n"
               "                         store path (util/fault_injection.h —\n"
               "                         chaos testing only)\n"
               "protocol: see src/io/serve_protocol.h (\"ALSSERVE 1\")\n",
               argv0);
  return 2;
}

std::atomic<bool> g_stop{false};
int g_listenFd = -1;

/// One client connection.  Shared between the handler thread and any worker
/// threads still holding this connection's job callbacks, so it lives as a
/// shared_ptr and closes its fd only when the last holder lets go.
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  std::mutex writeMutex;  ///< one protocol line/block at a time
  std::mutex tagMutex;
  std::unordered_map<std::string, std::uint64_t> tags;  ///< live tag -> job id
};

/// Writes one protocol line/block whole.  A client that went away is
/// ignored: the job finishes either way.
void writeAll(Connection& conn, const std::string& data) {
  std::lock_guard<std::mutex> lock(conn.writeMutex);
  sendAll(conn.fd, data);
}

void appendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Parses one JOB block (the JOB line is already consumed and split) and
/// submits it.  Framing errors abort the connection (return false) — after
/// a mis-framed CIRCUIT the stream position is unrecoverable; semantic
/// errors (unknown backend/OPT) are reported as ERROR lines and keep the
/// connection usable.
bool handleJob(ServeEngine& engine, const std::shared_ptr<Connection>& conn,
               LineReader& reader, std::string_view tag,
               std::string_view backendWord) {
  std::string tagStr(tag);
  EngineBackend backend = EngineBackend::FlatBStar;
  std::string semanticError;
  if (!parseBackendName(backendWord, backend)) {
    semanticError = "unknown backend '" + std::string(backendWord) + "'";
  }

  EngineOptions options;
  double deadlineSeconds = 0.0;
  std::uint64_t deadlineSweeps = 0;
  std::string line, circuitText;
  bool sawCircuit = false;
  for (;;) {
    if (!reader.readLine(line)) return false;
    std::string_view rest = line;
    std::string_view word = nextToken(rest);
    if (word == "END") break;
    if (word == "OPT") {
      std::string_view key = nextToken(rest);
      std::string_view value = nextToken(rest);
      // Deadlines are serve-layer knobs, not EngineOptions: they bound
      // whether a run finishes, never what a finished run produces, so they
      // stay out of applyJobOption and out of the cache key.
      if (key == "deadline-ms" || key == "deadline-sweeps") {
        std::uint64_t n = 0;
        if (!parseNum(value, &n)) {
          if (semanticError.empty()) {
            semanticError =
                "bad OPT " + std::string(key) + ": nonnegative integer";
          }
        } else if (key == "deadline-ms") {
          deadlineSeconds = static_cast<double>(n) / 1000.0;
        } else {
          deadlineSweeps = n;
        }
      } else if (semanticError.empty()) {
        semanticError = applyJobOption(options, key, value);
      }
    } else if (word == "CIRCUIT") {
      std::uint64_t nbytes = 0;
      // 64 MiB cap: a framing typo must not become an allocation bomb.
      if (!parseNum(nextToken(rest), &nbytes) || nbytes > (64u << 20)) {
        return false;
      }
      if (!reader.readExact(static_cast<std::size_t>(nbytes), circuitText)) {
        return false;
      }
      sawCircuit = true;
    } else {
      return false;  // not part of a JOB block: framing is broken
    }
  }
  if (semanticError.empty() && !sawCircuit) {
    semanticError = "JOB block has no CIRCUIT";
  }
  if (!semanticError.empty()) {
    writeAll(*conn, "ERROR " + tagStr + " " + semanticError + "\n");
    return true;
  }

  ServeEngine::Job job;
  job.circuitText = std::move(circuitText);
  job.backend = backend;
  job.options = options;
  job.deadlineSeconds = deadlineSeconds;
  job.deadlineSweeps = static_cast<std::size_t>(deadlineSweeps);
  job.onProgress = [conn, tagStr](std::size_t round, std::size_t sweeps,
                                  double best) {
    std::string out = "PROGRESS " + tagStr + " " + std::to_string(round) +
                      " " + std::to_string(sweeps) + " ";
    appendDouble(out, best);
    out += "\n";
    writeAll(*conn, out);
  };
  job.onDone = [conn, tagStr](const ServeEngine::JobOutcome& outcome) {
    {
      std::lock_guard<std::mutex> lock(conn->tagMutex);
      conn->tags.erase(tagStr);
    }
    if (!outcome.error.empty()) {
      writeAll(*conn, "ERROR " + tagStr + " " + outcome.error + "\n");
      return;
    }
    const char* status = outcome.cacheHit          ? "hit"
                         : outcome.deadlineExpired ? "deadline"
                         : outcome.cancelled       ? "cancelled"
                                                   : "miss";
    std::string payload;
    writeResultText(outcome.backend, *outcome.result, payload);
    std::string out = "RESULT " + tagStr + " " + status + " " +
                      std::to_string(payload.size()) + "\n";
    out += payload;
    out += "DONE " + tagStr + "\n";
    writeAll(*conn, out);
    // Chaos-test crash window: the client HAS its RESULT, the daemon dies
    // before anything else happens — restart recovery must serve the same
    // bytes from the durable store.
    FaultInjector::global().onCrashPoint("serve-after-result");
  };

  // Submit while holding the write mutex so the QUEUED line reaches the
  // client before any PROGRESS a fast worker might already be emitting
  // (callbacks also take the write mutex, on worker threads, so there is no
  // self-deadlock).  The tag is registered before QUEUED is visible, so a
  // CANCEL sent in response to QUEUED always finds its job.
  std::unique_lock<std::mutex> writeLock(conn->writeMutex);
  ServeEngine::Submission sub = engine.submit(std::move(job));
  std::string reply;
  if (sub.accepted) {
    {
      std::lock_guard<std::mutex> lock(conn->tagMutex);
      conn->tags[tagStr] = sub.id;
    }
    reply = "QUEUED " + tagStr + " " + sub.key.hex() + "\n";
  } else {
    reply = "REJECTED " + tagStr + " queue-full\n";
  }
  sendAll(conn->fd, reply);  // under the write lock taken above
  return true;
}

void handleConnection(ServeEngine& engine, std::shared_ptr<Connection> conn) {
  LineReader reader(conn->fd);
  std::string line;
  while (reader.readLine(line)) {
    std::string_view rest = line;
    std::string_view word = nextToken(rest);
    if (word.empty()) continue;
    if (word == "JOB") {
      std::string_view tag = nextToken(rest);
      std::string_view backendWord = nextToken(rest);
      if (tag.empty() || backendWord.empty()) {
        writeAll(*conn, "ERROR ? JOB needs <tag> <backend>\n");
        continue;
      }
      if (!handleJob(engine, conn, reader, tag, backendWord)) break;
    } else if (word == "CANCEL") {
      std::string tag(nextToken(rest));
      std::uint64_t id = 0;
      {
        std::lock_guard<std::mutex> lock(conn->tagMutex);
        auto it = conn->tags.find(tag);
        if (it != conn->tags.end()) id = it->second;
      }
      if (id != 0) engine.cancel(id);
    } else if (word == "STATS") {
      ServeStats s = engine.stats();
      writeAll(*conn, "STATS " + std::to_string(s.submitted) + " " +
                          std::to_string(s.completed) + " " +
                          std::to_string(s.cacheHits) + " " +
                          std::to_string(s.cacheMisses) + " " +
                          std::to_string(s.cancelled) + " " +
                          std::to_string(s.rejected) + " " +
                          std::to_string(s.deadlineExpired) + " " +
                          std::to_string(s.quarantined) + " " +
                          std::to_string(s.evicted) + " " +
                          std::to_string(s.memoryOnly ? 1 : 0) + "\n");
    } else if (word == "FLUSH") {
      engine.cache().clear();
      writeAll(*conn, "FLUSHED\n");
    } else if (word == "SHUTDOWN") {
      writeAll(*conn, "BYE\n");
      g_stop.store(true);
      if (g_listenFd >= 0) ::shutdown(g_listenFd, SHUT_RDWR);
      break;
    } else {
      writeAll(*conn, "ERROR ? unknown command\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socketPath;
  ServeOptions options;
  options.workers = 2;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      socketPath = v;
    } else if (arg == "--cache-dir") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      options.cacheDir = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (!v || !parseNum(v, &n) || n == 0 || n > 256) return usage(argv[0]);
      options.workers = static_cast<std::size_t>(n);
    } else if (arg == "--queue") {
      const char* v = value();
      if (!v || !parseNum(v, &n) || n == 0 || n > 65536) return usage(argv[0]);
      options.queueCapacity = static_cast<std::size_t>(n);
    } else if (arg == "--progress-interval") {
      const char* v = value();
      if (!v || !parseNum(v, &n) || n == 0) return usage(argv[0]);
      options.progressInterval = static_cast<std::size_t>(n);
    } else if (arg == "--cache-cap") {
      const char* v = value();
      if (!v || !parseNum(v, &n)) return usage(argv[0]);
      options.cacheCapacity = static_cast<std::size_t>(n);
    } else if (arg == "--faults") {
      const char* v = value();
      if (!v) return usage(argv[0]);
      const std::string err = FaultInjector::global().configure(v);
      if (!err.empty()) {
        std::fprintf(stderr, "als_serve: %s\n", err.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "als_serve: unknown option '%s'\n", argv[i]);
      return usage(argv[0]);
    }
  }
  if (socketPath.empty()) return usage(argv[0]);
  if (socketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
    std::fprintf(stderr, "als_serve: socket path too long\n");
    return 2;
  }

  // A client vanishing mid-RESULT must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  g_listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (g_listenFd < 0) {
    std::perror("als_serve: socket");
    return 1;
  }
  ::unlink(socketPath.c_str());  // replace a stale socket file
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  if (::bind(g_listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(g_listenFd, 64) < 0) {
    std::perror("als_serve: bind/listen");
    ::close(g_listenFd);
    return 1;
  }

  ServeEngine engine(options);
  std::fprintf(stderr,
               "als_serve: listening on %s (workers=%zu queue=%zu "
               "progress-interval=%zu cache=%s)\n",
               socketPath.c_str(), options.workers, options.queueCapacity,
               options.progressInterval,
               options.cacheDir.empty() ? "<memory>" : options.cacheDir.c_str());

  // One entry per handler thread.  Job callbacks share the connection, so
  // the loop keeps only a weak reference: the client fd closes as soon as
  // the handler and the connection's last in-flight job let go, and the
  // next accept joins the finished thread.
  struct Handler {
    std::thread thread;
    std::weak_ptr<Connection> conn;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Handler> handlers;
  auto reapFinished = [&handlers] {
    for (auto it = handlers.begin(); it != handlers.end();) {
      if (it->done->load()) {
        it->thread.join();
        it = handlers.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!g_stop.load()) {
    int fd = ::accept(g_listenFd, nullptr, nullptr);
    reapFinished();
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: they come back as clients finish, so back off
        // and keep serving instead of shutting down.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // listen socket shut down (SHUTDOWN) or fatal
    }
    auto conn = std::make_shared<Connection>(fd);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::weak_ptr<Connection> weak = conn;
    std::thread thread([&engine, conn = std::move(conn), done]() mutable {
      handleConnection(engine, std::move(conn));
      done->store(true);
    });
    handlers.push_back({std::move(thread), std::move(weak), std::move(done)});
  }

  // Wake any handler still blocked in read() on a connection its client
  // left open, then drain: every accepted job delivers its RESULT (the
  // connections stay writable — only their read side is shut down).
  for (const Handler& h : handlers) {
    if (auto conn = h.conn.lock()) ::shutdown(conn->fd, SHUT_RD);
  }
  for (Handler& h : handlers) h.thread.join();
  engine.shutdown();
  ::close(g_listenFd);
  ::unlink(socketPath.c_str());
  std::fprintf(stderr, "als_serve: bye\n");
  return 0;
}
