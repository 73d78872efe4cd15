// Shared pieces of the perfbench binary: the deployment the server builds,
// the wire run, and the in-process replays.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/workbench.h"
#include "serve/serving_model.h"
#include "stream.h"

namespace perfbench {

namespace fs = std::filesystem;

/// A Workbench reading (and on first use training into) work/osap_cache.
std::unique_ptr<osap::core::Workbench> OpenWorkbench(const fs::path& work);

/// The serving model osap_serve --listen deploys for `signal` (us | upi),
/// built the same way from the Gamma(2,2) bundle, permanent defaulting.
std::shared_ptr<const osap::serve::ServingModel> BuildModel(
    osap::core::Workbench& bench, const std::string& signal);

/// Trains the bundle (if the cache lacks it) and records the test-trace
/// trajectories into work/, then writes the completion marker
/// (work/prepared).
void Prepare(const fs::path& work);
fs::path TrajectoryFile(const fs::path& work);

/// Nearest-rank quantile of an unsorted sample (sorts it). 0 if empty.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

// --- wire run ---------------------------------------------------------

struct WireConfig {
  fs::path server;  // osap_serve binary
  fs::path work;    // the server's cwd (holds osap_cache)
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

struct ServerReport {
  std::string backend;  // from the io: line
  std::uint64_t decided = 0, busy = 0, rejected = 0, errors = 0;
  std::uint64_t epochs = 0, open_sessions = 0, syscalls = 0;
  long involuntary_cs = 0;
  bool parsed = false;
};

struct WireResult {
  // Accounting over the measured server's whole life.
  std::uint64_t sent = 0, ok = 0, busy = 0, error = 0, missing = 0;
  std::uint64_t overruns = 0;  // fixed-rate ticks dropped (slot behind)
  std::vector<std::string> failures;
  ServerReport server;

  std::vector<std::uint64_t> steps;  // completed STEPs per slot
  std::vector<SlotDigest> digests;

  /// One measured fixed-rate phase and the closed-loop phase after it.
  struct Block {
    std::vector<double> step_us;  // STEP latency from scheduled send
    std::vector<double> open_us;  // OPEN latency from scheduled send
    double decisions = 0.0, seconds = 0.0, cpu_s = 0.0, rss_mib = 0.0;
    double closed_rate = 0.0;  // closed-loop decisions per wall second
    double capacity = 0.0;     // closed-loop decisions per server CPU second
  };
  std::vector<Block> blocks;
  std::vector<double> setup_samples_s;
  std::vector<double> late_us;  // generator send lateness, fixed-rate
  double steal_share = 0.0;
};

WireResult RunWire(const WireConfig& config, const Trajectories& traj);

// --- in-process replay ------------------------------------------------

struct ReplayResult {
  std::uint64_t digest = 0;
  std::uint64_t decisions = 0;
  double wall_s = 0.0;
  std::vector<std::uint64_t> per_dataset = std::vector<std::uint64_t>(6);
  std::vector<std::uint64_t> defaulted = std::vector<std::uint64_t>(6);
  // Spans (traced replay only).
  std::vector<double> decide_us;  // per DecideBatch call
  double decide_s = 0.0, open_s = 0.0, close_s = 0.0;
  std::uint64_t opens = 0, closes = 0;
  double bytes_per_session = 0.0;
};

/// Replays the wire run's per-slot stream prefixes through a
/// DecisionService with the server's shard count, one step of every
/// active slot per round, in DecideBatch calls of at most `batch` requests
/// (0: the whole round).
ReplayResult ReplayService(
    std::shared_ptr<const osap::serve::ServingModel> model,
    const Workload& workload, const Trajectories& traj, std::uint64_t seed,
    const std::vector<std::uint64_t>& steps, std::size_t batch, bool traced);

struct LayerResult {
  std::uint64_t mismatches = 0;  // layer-composed vs service decisions
  double decode_ns = 0.0, encode_ns = 0.0;
  double extract_ns = 0.0, window_share = 0.0;
  double svm_ns_per_row = 0.0;
  double uncertainty_ns = 0.0, greedy_ns = 0.0;
  double observe_ns = 0.0, fallback_ns = 0.0;
};

/// Replays the same stream through the public layer functions (frame
/// codec, novelty extractor, OC-SVM, ensemble and actor passes, safety
/// core, fallback), timing each group of calls, and checks that the
/// composed decisions equal the service's.
LayerResult ReplayLayers(
    std::shared_ptr<const osap::serve::ServingModel> served,
    std::shared_ptr<const osap::serve::ServingModel> us_model,
    std::shared_ptr<const osap::serve::ServingModel> upi_model,
    const Workload& workload, const Trajectories& traj, std::uint64_t seed,
    const std::vector<std::uint64_t>& steps);

inline constexpr std::size_t kShards = 1;

}  // namespace perfbench
