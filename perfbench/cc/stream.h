// The benchmark's workloads and the seeded request stream they replay.
//
// Every session slot replays ABR state sequences recorded from real
// abr::AbrEnvironment runs over the six datasets' held-out test traces
// (slot i streams dataset i % 6). A slot's stream is a sequence of session
// lifetimes: OPEN, a run of STEPs, CLOSE, and again. Which trajectory a
// lifetime replays, where it starts and how long it lasts depend only on
// (seed, slot), never on timing, so the wire generator and the in-process
// replay consume identical per-slot streams; the only thing timing decides
// is how far along its stream each slot got, which the wire run records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  std::string signal;   // osap_serve signal: us | upi
  std::string backend;  // osap_serve --backend: epoll | uring
  std::size_t sessions = 0;
  double rate = 0.0;           // fixed-rate phase, decisions/s
  double mean_lifetime = 0.0;  // 0: full videos; else geometric mean steps
  double warmup_s = 1.0;       // untimed closed-loop warm-up
};

/// The workload named `name`; throws std::invalid_argument if none.
Workload FindWorkload(const std::string& name);

/// Recorded decision-state sequences, one per test trace, each
/// `steps` states of `dim` doubles.
struct Trajectories {
  std::size_t dim = 0;
  std::size_t steps = 0;
  std::vector<std::uint32_t> dataset;  // per trajectory: index 0..5
  std::vector<double> states;          // trajectory-major

  std::size_t count() const { return dataset.size(); }
  const double* State(std::size_t traj, std::size_t step) const {
    return states.data() + (traj * steps + step) * dim;
  }
  /// Trajectory indices of dataset `d`, in file order.
  std::vector<std::uint32_t> OfDataset(std::uint32_t d) const;

  void Save(const std::filesystem::path& path) const;  // atomic rename
  static Trajectories Load(const std::filesystem::path& path);
};

inline constexpr std::size_t kDatasets = 6;

/// splitmix64: the benchmark's only random source.
struct Rng {
  std::uint64_t s;
  std::uint64_t Next();
  double Uniform();  // [0, 1)
};

/// One slot's deterministic stream of lifetimes.
class SlotStream {
 public:
  SlotStream(const Workload& workload, const Trajectories& traj,
             const std::vector<std::vector<std::uint32_t>>& by_dataset,
             std::uint64_t seed, std::size_t slot);

  std::size_t dataset() const { return dataset_; }
  /// The state of the current lifetime's next STEP.
  const double* State() const;
  /// Consumes one STEP; returns true when that step ended the lifetime
  /// (the next State() belongs to a fresh session).
  bool Advance();

 private:
  void BeginLifetime(bool first);

  const Workload* workload_;
  const Trajectories* traj_;
  const std::vector<std::uint32_t>* pool_;
  Rng rng_;
  std::size_t dataset_;
  std::uint32_t trajectory_ = 0;
  std::uint32_t position_ = 0;
  std::uint32_t end_ = 0;
};

/// Per-slot digest of the (action, defaulted) reply sequence with its
/// lifetime boundaries (FNV-1a).
struct SlotDigest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void Byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void Step(std::int32_t action, bool defaulted) {
    Byte(static_cast<std::uint8_t>(action));
    Byte(defaulted ? 1 : 0);
  }
  void Boundary() { Byte(0xfe); }
};

/// Folds per-slot digests and step counts into one run digest.
std::uint64_t CombineDigests(std::span<const SlotDigest> slots,
                             std::span<const std::uint64_t> steps);

/// Per-slot phase in [0, 1) of the slot's fixed-rate period: sessions are
/// phase-shifted by the seed so the aggregate arrivals are uniform.
std::vector<double> SlotPhases(std::uint64_t seed, std::size_t slots);

/// Dataset index -> name ("norway", "gamma_2_2", ...).
std::string DatasetName(std::size_t d);

}  // namespace perfbench
