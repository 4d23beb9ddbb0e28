// gsrc-anneal and mcnc-race: the in-process workloads.  Both repeat one
// fixed job set (a "pass") until the measurement window is spent; every
// pass is the same seeded work, so passes must agree exactly (the
// determinism check) and the per-pass rates give a median.
#include <chrono>
#include <functional>
#include <memory>

#include "anneal/annealer.h"
#include "engine/placement_engine.h"
#include "io/benchmark_format.h"
#include "io/corpus.h"
#include "layers.h"
#include "layoutaware/placed_sizing.h"
#include "netlist/generators.h"
#include "runtime/portfolio.h"
#include "runtime/tempering.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- fixed job budgets (the workload definition; see WORKLOADS.md) ------
constexpr std::size_t kGsrcSweeps = 3;       ///< per gsrc-anneal job
constexpr std::size_t kGsrcSeedsPerJob = 2;  ///< seeds per backend x size
constexpr std::size_t kRaceSweeps = 48;      ///< per backend portfolio
constexpr std::size_t kRaceRestarts = 4;
/// Threads of the timed races.  Two-thread races moved pass to pass by
/// +-15% on a 4-vCPU VM (one contended vCPU stalls the fork-join) and their
/// medians drifted 21% between two ten-run sets, against 2% for one
/// thread; the traced run still measures the 2-thread speedup.
constexpr std::size_t kRaceThreads = 1;
constexpr std::size_t kSpeedupThreads = 2;
constexpr std::size_t kMillerSweeps = 32;
constexpr std::size_t kMillerCandidates = 2;
/// Set-up repetitions before the window and again after every pass (median
/// of all reported).  Set-up takes about 3 ms on gsrc-anneal and 0.1 ms on
/// mcnc-race, and this host's speed moves from second to second, so reps
/// taken in one burst would sample one moment of it.
constexpr std::size_t kGsrcSetupReps = 11;
constexpr std::size_t kMcncSetupReps = 51;

/// What one job reports back to the pass loop.
struct JobResult {
  std::string error;               ///< empty = every check passed
  std::vector<double> signature;   ///< must repeat exactly every pass
};
using JobFn = std::function<JobResult(std::size_t job, std::uint32_t span)>;

struct Pass {
  double wall = 0.0;
  bool traced = false;
};

struct Window {
  std::size_t jobs = 0;  ///< per pass
  std::vector<Pass> passes;
  std::vector<std::vector<double>> signature;  ///< pass 0, per job
};

/// Runs passes of `jobs` jobs until `seconds` are spent (at least two
/// passes; with tracing, odd passes are traced and even ones are not, so
/// the same run measures the tracing overhead).  Checks every job of every
/// pass against pass 0.  `afterPass` runs untraced and untimed after each
/// pass.
Window runWindow(const Args& args, Tracer& tracer, std::size_t jobs,
                 const JobFn& fn, const std::function<void()>& afterPass,
                 RunOutput& out) {
  Window w;
  w.jobs = jobs;
  const auto start = Clock::now();
  for (std::size_t p = 0; p < 2 || since(start) < args.seconds; ++p) {
    Pass pass;
    pass.traced = args.trace && p % 2 == 1;
    tracer.setEnabled(pass.traced);
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < jobs; ++j) {
      Tracer::Scope span(tracer, "job", p * jobs + j);
      JobResult r = fn(j, span.id());
      ++out.attempted;
      if (!r.error.empty()) {
        out.fail("pass " + std::to_string(p) + " job " + std::to_string(j) +
                 ": " + r.error);
      } else if (p == 0) {
        w.signature.push_back(std::move(r.signature));
      } else if (j < w.signature.size() && r.signature != w.signature[j]) {
        out.fail("job " + std::to_string(j) + " differs between passes 0 and " +
                 std::to_string(p) + " (same code, same seed)");
      }
    }
    pass.wall = since(t0);
    w.passes.push_back(std::move(pass));
    tracer.setEnabled(false);
    afterPass();
  }
  tracer.setEnabled(args.trace);
  return w;
}

std::vector<double> passRates(const Window& w, double movesPerPass,
                              bool traced) {
  std::vector<double> rates;
  for (const Pass& p : w.passes) {
    if (p.traced == traced) rates.push_back(movesPerPass / p.wall);
  }
  return rates;
}

/// The end-to-end rows every in-process workload reports.
void addAnnealE2e(const Window& w, double setupS, double movesPerPass,
                  const std::vector<double>& areaRatios,
                  const std::vector<double>& hpwlUm, RunOutput& out) {
  // Latency is the completion time of the fixed job set (one pass): the
  // jobs differ in size by 30x, so a per-job median would jump between job
  // classes as their order shifts from seed to seed.
  std::vector<double> passMs;
  double wall = 0.0;
  for (const Pass& p : w.passes) {
    if (p.traced) continue;
    passMs.push_back(p.wall * 1e3);
    wall += p.wall;
  }
  const FailFraction ff{out.failed, out.attempted};
  const GeoMean area = geomean(areaRatios);
  const GeoMean hpwl = geomean(hpwlUm);
  if (!area.ok || !hpwl.ok) out.fail("area/HPWL geomean over a non-positive value");
  out.addE2e("setup_s", setupS, "s");
  out.addE2e("moves_per_s", median(passRates(w, movesPerPass, false)),
             "moves/s");
  out.addE2e("latency_p50_ms", percentile(passMs, 0.5), "ms");
  out.addE2e("latency_p99_ms", percentile(passMs, 0.99), "ms");
  out.addE2e("goodput_jps",
             static_cast<double>(w.jobs * passMs.size()) * ff.ok() / wall,
             "jobs/s");
  out.addE2e("ok_frac", ff.ok(), "ratio");
  out.addE2e("area_ratio", area.value, "ratio");
  out.addE2e("hpwl_gm_um", hpwl.value, "um");
  out.addE2e("peak_rss_mb", readProcGauges(0).vmHwmMb, "MB");
  std::string rates;
  for (double r : passRates(w, movesPerPass, false)) {
    rates += " " + std::to_string(static_cast<long long>(r));
  }
  out.notes.push_back("perfbench: untraced pass rates [moves/s]:" + rates);
  out.notes.push_back(
      "perfbench: " + std::to_string(w.passes.size()) + " passes of " +
      std::to_string(w.jobs) + " jobs, " + std::to_string(passMs.size()) +
      " untraced (latency_p99_ms " +
      (percentileResolved(passMs.size(), 0.99)
           ? "resolved"
           : "has fewer than 10 samples beyond it: the slowest pass") +
      "); area/hpwl geomean base " + std::to_string(area.base) +
      "; ok_frac base " + std::to_string(out.attempted) + " attempted");
}

void addOverhead(const Window& w, double movesPerPass, RunOutput& out) {
  const double plain = median(passRates(w, movesPerPass, false));
  const double traced = median(passRates(w, movesPerPass, true));
  out.addLayer("trace.overhead_frac", plain > 0 ? (plain - traced) / plain : 0,
               "ratio");
}

double areaRatio(const als::Circuit& c, const als::EngineResult& r) {
  return static_cast<double>(r.placement.boundingBox().area()) /
         static_cast<double>(c.totalModuleArea());
}

double hpwlUm(const als::EngineResult& r) {
  return static_cast<double>(r.hpwl) * 1e-3;  // 1 DBU = 1 nm
}

std::vector<double> signatureOf(const als::EngineResult& r) {
  return {r.cost, static_cast<double>(r.area), static_cast<double>(r.hpwl),
          static_cast<double>(r.movesTried), static_cast<double>(r.sweeps)};
}

std::uint64_t jobSeed(std::uint64_t workloadSeed, std::size_t job) {
  return 1 + (mixSeed(workloadSeed, 100 + job) >> 16);
}

}  // namespace

void addEngineRows(const std::vector<EngineTally>& tally, double movesTried,
                   double sweeps, RunOutput& out) {
  double total = 0.0;
  for (const EngineTally& t : tally) total += t.seconds;
  const auto backends = als::allBackends();
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const std::string name =
        "engine." + std::string(als::backendName(backends[b]));
    const EngineTally& t = tally[b];
    out.addLayer(name + ".moves_per_s", t.seconds > 0 ? t.moves / t.seconds : 0,
                 "moves/s");
    out.addLayer(name + ".wall_share", total > 0 ? t.seconds / total : 0,
                 "ratio");
  }
  out.addLayer("engine.moves_tried", movesTried, "count");
  out.addLayer("engine.sweeps", sweeps, "count");
}

std::size_t backendIndex(als::EngineBackend b) {
  const auto all = als::allBackends();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i] == b) return i;
  }
  return 0;
}

// ---------------------------------------------------------------------------
void runGsrcAnneal(const Args& args, RunOutput& out) {
  Tracer tracer(args.trace);
  const std::vector<als::CorpusCircuit> sizes = als::largeCorpusCircuits();

  // Set-up: generate and parse the n100-n300 corpus, several times.
  std::vector<double> setupS, genMs;
  const auto setUp = [&](std::vector<std::string>& texts,
                         std::vector<als::Circuit>& circuits) {
    for (std::size_t rep = 0; rep < kGsrcSetupReps; ++rep) {
      const auto t0 = Clock::now();
      double gen = 0.0;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::size_t n = i == 0 ? 100 : i == 1 ? 200 : 300;
        const auto tg = Clock::now();
        {
          Tracer::Scope s(tracer, "io", 0);
          texts[i] = als::writeBenchmark(als::makeGsrcLikeCircuit(n, n)).text;
        }
        gen += since(tg);
        Tracer::Scope s(tracer, "io", 0);
        als::ParseResult parsed = als::parseBenchmark(texts[i]);
        if (!parsed.ok()) out.fail("gsrc corpus parse: " + parsed.error);
        circuits[i] = std::move(parsed.circuit);
      }
      setupS.push_back(since(t0));
      genMs.push_back(gen * 1e3);
    }
  };
  std::vector<std::string> texts(sizes.size()), spareTexts(sizes.size());
  std::vector<als::Circuit> circuits(sizes.size()), spareCircuits(sizes.size());
  setUp(texts, circuits);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (texts[i] != als::corpusText(sizes[i])) {
      out.fail(std::string("generated ") + als::corpusName(sizes[i]) +
               " text differs from the corpus");
    }
  }

  // Jobs: every backend x n100/n200/n300, one restart on this thread.
  struct Job {
    std::size_t circuit;
    als::EngineBackend backend;
    als::EngineOptions options;
  };
  std::vector<Job> jobs;
  std::vector<std::unique_ptr<als::PlacementEngine>> engines;
  for (als::EngineBackend b : als::allBackends()) engines.push_back(als::makeEngine(b));
  for (std::size_t rep = 0; rep < kGsrcSeedsPerJob; ++rep) {
    for (std::size_t c = 0; c < circuits.size(); ++c) {
      for (als::EngineBackend b : als::allBackends()) {
        Job j{c, b, {}};
        j.options.maxSweeps = kGsrcSweeps;
        j.options.seed = jobSeed(args.seed, jobs.size());
        jobs.push_back(j);
      }
    }
  }

  std::vector<EngineTally> tally(als::allBackends().size());
  std::vector<KeyedResult> firstResults;
  double movesPerPass = 0.0, sweepsPerPass = 0.0;
  std::vector<double> areas, hpwls;
  const JobFn fn = [&](std::size_t j, std::uint32_t span) -> JobResult {
    const Job& job = jobs[j];
    const als::Circuit& c = circuits[job.circuit];
    JobResult r;
    const auto t0 = Clock::now();
    als::EngineResult res;
    {
      Tracer::Scope s(tracer, "engine", 0, span);
      res = engines[backendIndex(job.backend)]->place(c, job.options);
    }
    EngineTally& t = tally[backendIndex(job.backend)];
    t.seconds += since(t0);
    t.moves += static_cast<double>(res.movesTried);
    tracer.count("engine.moves_tried", static_cast<double>(res.movesTried));
    tracer.count("engine.sweeps", static_cast<double>(res.sweeps));
    r.error = checkPlacement(c, res.placement);
    r.signature = signatureOf(res);
    if (firstResults.size() < jobs.size()) {
      movesPerPass += static_cast<double>(res.movesTried);
      sweepsPerPass += static_cast<double>(res.sweeps);
      areas.push_back(areaRatio(c, res));
      hpwls.push_back(hpwlUm(res));
      firstResults.push_back({&texts[job.circuit], job.backend, job.options,
                              std::move(res)});
    }
    return r;
  };
  const Window w = runWindow(
      args, tracer, jobs.size(), fn,
      [&] { setUp(spareTexts, spareCircuits); }, out);
  addAnnealE2e(w, median(setupS), movesPerPass, areas, hpwls, out);
  if (!args.trace) return;

  addOverhead(w, movesPerPass, out);
  addEngineRows(tally, movesPerPass, sweepsPerPass, out);
  out.addLayer("io.corpus_gen_ms", median(genMs), "ms");
  const als::Circuit thermal = als::loadCorpusCircuit(als::CorpusCircuit::Ami49);
  LayerInputs in;
  in.kernelCircuit = &circuits.back();
  in.decodeCircuit = &circuits.back();
  in.thermalCircuit = &thermal;
  for (const std::string& t : texts) in.circuitTexts.push_back(&t);
  in.results = std::move(firstResults);
  in.cacheDir = args.outDir + "/layer-cache";
  runLayerReplays(in, args.seed, tracer, out);
  addSelfTimes(tracer, out);
  fillUncrossedLayers(out);
  tracer.writeJsonLines(args.outDir + "/trace-gsrc-anneal.jsonl");
}

// ---------------------------------------------------------------------------
namespace {

bool hasAnalogAnnotations(const als::Circuit& c, bool* power, bool* shapes) {
  *power = *shapes = false;
  for (const als::Module& m : c.modules()) {
    *power |= m.powerW > 0.0;
    *shapes |= !m.shapes.empty();
  }
  return *power || *shapes;
}

als::OtaSpecs millerSpecs() {
  als::OtaSpecs specs;
  specs.minGainDb = 70.0;
  specs.minGbwHz = 15e6;
  specs.minPmDeg = 55.0;
  specs.minSrVps = 10e6;
  return specs;
}

enum class RaceKind { Portfolio, Tempering, Analog, Miller };

}  // namespace

void runMcncRace(const Args& args, RunOutput& out) {
  Tracer tracer(args.trace);
  const std::vector<als::CorpusCircuit> corpus = als::allCorpusCircuits();

  std::vector<double> setupS;
  const auto setUp = [&](std::vector<std::string>& texts,
                         std::vector<als::Circuit>& circuits) {
    for (std::size_t rep = 0; rep < kMcncSetupReps; ++rep) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        Tracer::Scope s(tracer, "io", 0);
        texts[i] = std::string(als::corpusText(corpus[i]));
        als::ParseResult parsed = als::parseBenchmark(texts[i]);
        if (!parsed.ok()) out.fail("mcnc corpus parse: " + parsed.error);
        circuits[i] = std::move(parsed.circuit);
      }
      setupS.push_back(since(t0));
    }
  };
  std::vector<std::string> texts(corpus.size()), spareTexts(corpus.size());
  std::vector<als::Circuit> circuits(corpus.size()), spareCircuits(corpus.size());
  setUp(texts, circuits);

  struct Job {
    RaceKind kind;
    std::size_t circuit;
    als::EngineOptions options;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    als::EngineOptions base;
    base.maxSweeps = kRaceSweeps;
    base.numRestarts = kRaceRestarts;
    base.numThreads = kRaceThreads;
    base.seed = jobSeed(args.seed, jobs.size());
    jobs.push_back({RaceKind::Portfolio, c, base});
    als::EngineOptions temp = base;
    temp.seed = jobSeed(args.seed, jobs.size());
    temp.tempering = true;
    temp.crossSeed = true;
    jobs.push_back({RaceKind::Tempering, c, temp});
    bool power = false, shapes = false;
    if (hasAnalogAnnotations(circuits[c], &power, &shapes)) {
      als::EngineOptions analog = base;
      analog.seed = jobSeed(args.seed, jobs.size());
      analog.thermalWeight = power ? 1.0 : 0.0;
      analog.shapeMoveProb = shapes ? 0.2 : 0.0;
      jobs.push_back({RaceKind::Analog, c, analog});
    }
  }
  {
    als::EngineOptions miller;
    miller.maxSweeps = kMillerSweeps;
    miller.numThreads = kRaceThreads;
    miller.thermalWeight = 1.0;
    miller.shapeMoveProb = 0.2;
    miller.seed = jobSeed(args.seed, jobs.size());
    jobs.push_back({RaceKind::Miller, 0, miller});
  }

  als::ThreadPool pool(kRaceThreads);
  const als::PortfolioRunner portfolio(&pool);
  const als::TemperingRunner tempering(&pool);
  const als::Technology tech = als::Technology::c035();
  const auto backends = als::allBackends();

  // Pass-0 outputs: winners for the race oracle and the io/cache replays,
  // tempering counts, and the per-job move counts of the tempering and
  // Miller jobs (portfolio races report only the winner's moves; theirs
  // come from the per-backend oracle below).
  std::vector<KeyedResult> winners(jobs.size());
  std::vector<double> jobMoves(jobs.size(), 0.0), jobSweeps(jobs.size(), 0.0);
  std::vector<double> areas, hpwls;
  std::size_t rounds = 0, exchanges = 0, reseeds = 0;
  std::size_t done = 0;

  const JobFn fn = [&](std::size_t j, std::uint32_t span) -> JobResult {
    const Job& job = jobs[j];
    JobResult r;
    const bool first = done < jobs.size();
    ++done;
    if (job.kind == RaceKind::Miller) {
      als::PlacedSizingOptions popt;
      popt.sizing.layoutAware = true;
      popt.sizing.seed = job.options.seed;
      popt.numCandidates = kMillerCandidates;
      popt.backend = als::EngineBackend::SeqPair;
      popt.placement = job.options;
      als::PlacedSizingResult flow;
      {
        Tracer::Scope s(tracer, "runtime", 0, span);
        flow = als::runMillerPlacedSizing(tech, millerSpecs(), popt);
      }
      for (const als::PlacedSizingCandidate& cand : flow.candidates) {
        const std::string err = checkPlacement(cand.circuit, cand.placement.placement);
        if (!err.empty()) r.error = "miller candidate: " + err;
        for (double v : signatureOf(cand.placement)) r.signature.push_back(v);
        if (first) {
          jobMoves[j] += static_cast<double>(cand.placement.movesTried);
          jobSweeps[j] += static_cast<double>(cand.placement.sweeps);
        }
      }
      if (first && !flow.candidates.empty()) {
        areas.push_back(areaRatio(flow.best().circuit, flow.best().placement));
        hpwls.push_back(hpwlUm(flow.best().placement));
      }
      return r;
    }
    const als::Circuit& c = circuits[job.circuit];
    als::EngineResult res;
    als::EngineBackend winner = als::EngineBackend::FlatBStar;
    if (job.kind == RaceKind::Tempering) {
      als::TemperingOutcome o;
      {
        Tracer::Scope s(tracer, "runtime", 0, span);
        o = tempering.race(c, backends, job.options);
      }
      if (first) {
        for (const als::TemperingReplica& rep : o.replicas) {
          jobMoves[j] += static_cast<double>(rep.movesTried);
          jobSweeps[j] += static_cast<double>(rep.sweeps);
        }
        rounds += o.rounds;
        exchanges += o.exchangesAccepted;
        reseeds += o.reseeds;
      }
      tracer.count("runtime.tempering_rounds", static_cast<double>(o.rounds));
      tracer.count("runtime.exchanges_accepted",
                   static_cast<double>(o.exchangesAccepted));
      tracer.count("runtime.reseeds", static_cast<double>(o.reseeds));
      r.signature = {static_cast<double>(o.rounds),
                     static_cast<double>(o.exchangesAccepted),
                     static_cast<double>(o.reseeds)};
      res = std::move(o.result);
      winner = o.backend;
    } else {
      als::PortfolioRunner::RaceOutcome o;
      {
        Tracer::Scope s(tracer, "runtime", 0, span);
        o = portfolio.race(c, backends, job.options);
      }
      res = std::move(o.result);
      winner = o.backend;
    }
    r.error = checkPlacement(c, res.placement);
    for (double v : signatureOf(res)) r.signature.push_back(v);
    r.signature.push_back(static_cast<double>(backendIndex(winner)));
    if (first) {
      areas.push_back(areaRatio(c, res));
      hpwls.push_back(hpwlUm(res));
      winners[j] = {&texts[job.circuit], winner, job.options, std::move(res)};
    }
    return r;
  };
  const Window w = runWindow(
      args, tracer, jobs.size(), fn,
      [&] { setUp(spareTexts, spareCircuits); }, out);

  // Race oracle: each backend's standalone portfolio run must reproduce the
  // race's per-backend result, the winner must be the cheapest of them, and
  // their moves are the race's work.
  std::vector<EngineTally> tally(backends.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].kind != RaceKind::Portfolio && jobs[j].kind != RaceKind::Analog) {
      continue;
    }
    const als::Circuit& c = circuits[jobs[j].circuit];
    double bestCost = 0.0;
    bool haveBest = false;
    for (std::size_t b = 0; b < backends.size(); ++b) {
      als::EngineOptions one = jobs[j].options;
      one.numThreads = 1;
      const auto t0 = Clock::now();
      const als::EngineResult r = als::PortfolioRunner().run(c, backends[b], one);
      tally[b].seconds += since(t0);
      tally[b].moves += static_cast<double>(r.movesTried);
      jobMoves[j] += static_cast<double>(r.movesTried);
      jobSweeps[j] += static_cast<double>(r.sweeps);
      if (!haveBest || r.cost < bestCost) bestCost = r.cost;
      haveBest = true;
      if (backends[b] == winners[j].backend &&
          signatureOf(r) != signatureOf(winners[j].result)) {
        out.fail("race job " + std::to_string(j) +
                 ": winner differs from its backend's standalone portfolio run");
      }
    }
    ++out.attempted;
    if (winners[j].result.cost != bestCost) {
      out.fail("race job " + std::to_string(j) + ": winner is not the cheapest");
    }
  }
  double movesPerPass = 0.0, sweepsPerPass = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    movesPerPass += jobMoves[j];
    sweepsPerPass += jobSweeps[j];
  }
  addAnnealE2e(w, median(setupS), movesPerPass, areas, hpwls, out);
  if (!args.trace) return;

  addOverhead(w, movesPerPass, out);
  addEngineRows(tally, movesPerPass, sweepsPerPass, out);

  // Runtime layer: 1- vs 2-thread wall (results must be identical) and the
  // slice imbalance of each race's backend x restart grid.
  als::ThreadPool solo(1), duo(kSpeedupThreads);
  double portfolio1 = 0, portfolio2 = 0, tempering1 = 0, tempering2 = 0;
  double imbalanceSum = 0.0;
  std::size_t races = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    if (job.kind == RaceKind::Miller) continue;
    const als::Circuit& c = circuits[job.circuit];
    Tracer::Scope span(tracer, "runtime", 2ull << 40);
    if (job.kind == RaceKind::Tempering) {
      auto t0 = Clock::now();
      const auto a = als::TemperingRunner(&solo).race(c, backends, job.options);
      tempering1 += since(t0);
      t0 = Clock::now();
      const auto b = als::TemperingRunner(&duo).race(c, backends, job.options);
      tempering2 += since(t0);
      if (signatureOf(a.result) != signatureOf(b.result)) {
        out.fail("tempering race differs between 1 and 2 threads");
      }
      continue;
    }
    auto t0 = Clock::now();
    const auto a = als::PortfolioRunner(&solo).race(c, backends, job.options);
    portfolio1 += since(t0);
    t0 = Clock::now();
    const auto b = als::PortfolioRunner(&duo).race(c, backends, job.options);
    portfolio2 += since(t0);
    if (signatureOf(a.result) != signatureOf(b.result)) {
      out.fail("portfolio race differs between 1 and 2 threads");
    }
    std::vector<double> sliceS;
    const std::size_t mpt = als::resolveMovesPerTemp(0, c.moduleCount());
    for (als::EngineBackend be : backends) {
      const auto engine = als::makeEngine(be);
      for (const als::RestartSlice& slice : als::makeRestartPlan(job.options)) {
        const auto ts = Clock::now();
        engine->place(c, als::sliceEngineOptions(job.options, slice, mpt));
        sliceS.push_back(since(ts));
      }
    }
    double mean = 0.0, mx = 0.0;
    for (double s : sliceS) {
      mean += s / static_cast<double>(sliceS.size());
      mx = std::max(mx, s);
    }
    imbalanceSum += mean > 0 ? mx / mean : 0.0;
    ++races;
  }
  out.addLayer("runtime.race_speedup", portfolio2 > 0 ? portfolio1 / portfolio2 : 0,
               "x");
  out.addLayer("runtime.tempering_speedup",
               tempering2 > 0 ? tempering1 / tempering2 : 0, "x");
  out.addLayer("runtime.slice_imbalance", races ? imbalanceSum / races : 0,
               "ratio");
  out.addLayer("runtime.tempering_rounds", static_cast<double>(rounds), "count");
  out.addLayer("runtime.exchanges_accepted", static_cast<double>(exchanges),
               "count");
  out.addLayer("runtime.reseeds", static_cast<double>(reseeds), "count");

  const als::Circuit n300 = als::loadCorpusCircuit(als::CorpusCircuit::N300);
  LayerInputs in;
  in.kernelCircuit = &n300;
  in.decodeCircuit = &circuits.back();
  in.thermalCircuit = &circuits.back();
  for (const std::string& t : texts) in.circuitTexts.push_back(&t);
  for (KeyedResult& kr : winners) {
    if (kr.circuitText) in.results.push_back(std::move(kr));
  }
  in.cacheDir = args.outDir + "/layer-cache";
  runLayerReplays(in, args.seed, tracer, out);
  addSelfTimes(tracer, out);
  fillUncrossedLayers(out);
  tracer.writeJsonLines(args.outDir + "/trace-mcnc-race.jsonl");
}

// ---------------------------------------------------------------------------
void addSelfTimes(const Tracer& tracer, RunOutput& out) {
  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, double> self = selfTimes(spans);
  for (const char* layer :
       {"io", "kernel", "decode", "cost", "engine", "runtime", "cache", "serve"}) {
    auto it = self.find(layer);
    out.addLayer(std::string("self.") + layer + "_ms",
                 it == self.end() ? 0.0 : it->second * 1e3, "ms");
  }
  out.addLayer("trace.spans", static_cast<double>(spans.size()), "count");
}

void fillUncrossedLayers(RunOutput& out) {
  for (const auto& [name, unit] : kPerLayerNames) {
    bool present = false;
    for (const Metric& m : out.perLayer) present |= m.name == name;
    if (!present) out.addLayer(name, 0.0, unit.c_str());
  }
}

}  // namespace perfbench
