#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "io/serve_protocol.h"
#include "report.h"

namespace perfbench {

std::uint64_t ServeSchedule::digest() const {
  std::string bytes;
  auto put = [&bytes](const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  for (const ServeKey& k : keys) {
    const std::uint64_t words[4] = {k.circuit,
                                    static_cast<std::uint64_t>(k.backend),
                                    k.seed, k.tempering ? 1u : 0u};
    put(words, sizeof words);
  }
  for (const ServeArrival& a : arrivals) {
    std::uint64_t due = 0;
    std::memcpy(&due, &a.dueS, sizeof due);
    const std::uint64_t words[4] = {due, a.key, a.oneShot ? 1u : 0u,
                                    a.firstSend ? 1u : 0u};
    put(words, sizeof words);
  }
  return als::fnv1a64(bytes);
}

namespace {

/// A seeded deck: `count` draws of `marked` trues per round of `round`
/// cards, reshuffled when empty — a Bernoulli share without its variance.
class Deck {
 public:
  Deck(std::size_t round, std::size_t marked) : round_(round), marked_(marked) {}
  std::size_t draw(SplitMix& rng) {
    if (cards_.empty()) {
      for (std::size_t c = 0; c < round_; ++c) cards_.push_back(c);
      for (std::size_t c = cards_.size(); c > 1; --c) {
        std::swap(cards_[c - 1], cards_[rng.index(c)]);
      }
    }
    const std::size_t card = cards_.back();
    cards_.pop_back();
    return card;
  }
  bool drawMarked(SplitMix& rng) { return draw(rng) < marked_; }

 private:
  std::size_t round_, marked_;
  std::vector<std::size_t> cards_;
};

constexpr std::size_t kBlock = 10;  ///< arrivals per role round

}  // namespace

ServeSchedule makeServeSchedule(std::uint64_t seed, double seconds,
                                std::size_t circuits) {
  ServeSchedule s;
  SplitMix timeRng(mixSeed(seed, 1));
  SplitMix mixRng(mixSeed(seed, 2));

  const auto count = static_cast<std::size_t>(std::lround(kArrivalRate * seconds));
  std::vector<double> due(count);
  for (double& t : due) t = timeRng.uniform() * seconds;
  std::sort(due.begin(), due.end());

  // Every share is dealt from a deck, so each seed gets the same counts:
  // per 10 arrivals exactly round(10 (1 - kRepeatFrac)) new keys and
  // round(10 kOneShotFrac) one-shot jobs; new keys visit every (circuit,
  // backend, variant) once per round, one variant in 1/kTemperingFrac being
  // a tempering job.  The seed decides only the order and the job seeds.
  const auto backends = als::allBackends();
  const auto share = [](double f) {
    return static_cast<std::size_t>(std::lround(f * kBlock));
  };
  Deck newKeys(kBlock, share(1.0 - kRepeatFrac));
  Deck oneShots(kBlock, share(kOneShotFrac));
  const auto variants =
      static_cast<std::size_t>(std::lround(1.0 / kTemperingFrac));
  Deck keyDeck(circuits * backends.size() * variants, 0);
  std::vector<double> zipfCum;  // cumulative popularity over keys
  s.arrivals.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ServeArrival a;
    a.dueS = due[i];
    const bool fresh = newKeys.drawMarked(mixRng);
    if (s.keys.empty() || fresh) {
      const std::size_t card = keyDeck.draw(mixRng);
      ServeKey k;
      k.circuit = card / (backends.size() * variants);
      k.backend = backends[card / variants % backends.size()];
      k.tempering = card % variants == 0;
      k.seed = 1 + (mixRng.next() >> 40);
      a.key = s.keys.size();
      a.firstSend = true;
      s.keys.push_back(k);
      const double w =
          1.0 / std::pow(static_cast<double>(a.key + 1), kZipfExponent);
      zipfCum.push_back((zipfCum.empty() ? 0.0 : zipfCum.back()) + w);
    } else {
      const double target = mixRng.uniform() * zipfCum.back();
      a.key = static_cast<std::size_t>(
          std::upper_bound(zipfCum.begin(), zipfCum.end(), target) -
          zipfCum.begin());
      a.key = std::min(a.key, s.keys.size() - 1);
    }
    a.oneShot = oneShots.drawMarked(mixRng);
    s.arrivals.push_back(a);
  }
  return s;
}

std::string jobMessage(const std::string& tag, const ServeKey& key,
                       const std::string& circuitText, std::size_t sweeps,
                       std::size_t restarts) {
  std::string msg = "JOB " + tag + " " +
                    std::string(als::backendName(key.backend)) + "\n";
  msg += "OPT sweeps " + std::to_string(sweeps) + "\n";
  msg += "OPT restarts " + std::to_string(restarts) + "\n";
  msg += "OPT seed " + std::to_string(key.seed) + "\n";
  if (key.tempering) msg += "OPT tempering 1\n";
  msg += "CIRCUIT " + std::to_string(circuitText.size()) + "\n";
  msg += circuitText;
  msg += "END\n";
  return msg;
}

}  // namespace perfbench
