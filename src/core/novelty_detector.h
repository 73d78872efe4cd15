// U_S: novelty detection over observed environment states (paper
// Sections 2.4 and 3.1).
//
// Per step, the detector computes the mean and standard deviation of the
// `throughput_window` (10) most recent measured network throughputs; a
// sample is the concatenation of the `k` latest such [mean, stddev] pairs
// (k = 5 for the empirical datasets, 30 for the synthetic ones). A one-class
// SVM trained on samples from the training distribution classifies each
// test sample as in-distribution (+1) or out-of-distribution (-1); the
// Score is 0 / 1 accordingly.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "abr/state.h"
#include "core/uncertainty.h"
#include "svm/ocsvm.h"
#include "util/stats.h"

namespace osap::core {

struct NoveltyDetectorConfig {
  /// Throughput samples per [mean, stddev] pair.
  std::size_t throughput_window = 10;
  /// Number of latest pairs per OC-SVM sample (paper: 5 empirical /
  /// 30 synthetic).
  std::size_t k = 5;
  svm::OcSvmConfig svm;
};

/// Streams throughput observations into OC-SVM feature vectors; shared by
/// online detection and offline training-set extraction so both see
/// identical features.
///
/// The variable state is the throughput window (WindowDoubles(config))
/// plus the [mean, stddev] pair ring (PairDoubles(config)). The ring is
/// first written by the push that fills the window, so it may arrive
/// late:
///   - the config constructor allocates both parts privately (offline
///     use: NoveltyDetector, training-set extraction);
///   - the placement constructor places only the window in caller-owned
///     memory, and the caller attaches a ring (AttachPairs) once
///     NeedsPairs() says the next push would write one. This is how the
///     serving path packs thousands of per-session extractors into shard
///     slabs with zero private allocations, and keeps short-lived
///     sessions from ever paying for a ring.
/// Copies are deep into owned storage (both parts); moves steal it.
class NoveltyFeatureExtractor {
 public:
  explicit NoveltyFeatureExtractor(const NoveltyDetectorConfig& config);

  /// Places the window into `window` (>= WindowDoubles(config) doubles,
  /// uninitialized is fine). The caller keeps the memory alive and in
  /// place for the extractor's lifetime, and attaches a pair ring before
  /// the push that fills the window.
  NoveltyFeatureExtractor(const NoveltyDetectorConfig& config,
                          std::span<double> window);

  ~NoveltyFeatureExtractor();
  NoveltyFeatureExtractor(const NoveltyFeatureExtractor& other);
  NoveltyFeatureExtractor& operator=(const NoveltyFeatureExtractor& other);
  NoveltyFeatureExtractor(NoveltyFeatureExtractor&& other) noexcept;
  NoveltyFeatureExtractor& operator=(NoveltyFeatureExtractor&& other) noexcept;

  /// Doubles of throughput window an extractor for `config` holds.
  static std::size_t WindowDoubles(const NoveltyDetectorConfig& config) {
    return config.throughput_window;
  }
  /// Doubles of its ring of k interleaved [mean, stddev] pairs.
  static std::size_t PairDoubles(const NoveltyDetectorConfig& config) {
    return 2 * config.k;
  }

  /// True while a pair ring is attached (always for an owning extractor
  /// or a copy; for a placed one, from AttachPairs to DetachPairs).
  bool HasPairs() const { return pairs_ != nullptr; }
  /// True iff no ring is attached and the next Push fills (or slides) the
  /// window, i.e. would write a pair.
  bool NeedsPairs() const {
    return pairs_ == nullptr && window_.Size() + 1 >= window_.Capacity();
  }
  /// Attaches a caller-owned ring (>= PairDoubles doubles, uninitialized
  /// is fine) to an extractor that has none. The caller keeps it alive
  /// and in place until DetachPairs or the extractor's end.
  void AttachPairs(std::span<double> pairs);
  /// Resets the stream and drops a ring attached by AttachPairs (the
  /// caller may then reuse it elsewhere).
  void DetachPairs();

  /// Pushes one throughput observation (Mbps). Returns the feature vector
  /// (2k dims: k x [mean, stddev], oldest pair first) once enough history
  /// has accumulated, std::nullopt during warm-up.
  std::optional<std::vector<double>> Push(double throughput_mbps);

  /// Allocation-free overload: writes the feature into `out` (>= 2k dims)
  /// and returns true, or returns false during warm-up with `out`
  /// untouched. Same streaming state and values as the optional overload;
  /// this is what the serving path stages shard batches through.
  bool Push(double throughput_mbps, std::span<double> out);

  /// Feature dimensionality (2k).
  std::size_t FeatureSize() const { return 2 * k_; }

  /// Restarts warm-up; an attached ring stays attached.
  void Reset();

 private:
  SlidingWindowStats window_;
  // k latest [mean, stddev] pairs, interleaved in a fixed-capacity ring
  // (head_ indexes the oldest). A deque here would hit the allocator on
  // every eviction; the serving path pushes one pair per session per
  // round, so the pair history is hot state and must stay
  // allocation-free after warm-up.
  double* pairs_ = nullptr;
  std::unique_ptr<double[]> owned_pairs_;  // set iff pairs_ is private
  std::uint32_t k_ = 0;
  std::uint32_t head_ = 0;   // index of oldest pair once the ring is full
  std::uint32_t count_ = 0;  // pairs currently held (< k during warm-up)
};

class NoveltyDetector final : public UncertaintyEstimator {
 public:
  /// Extracts the monitored scalar from an observation; values <= 0 are
  /// treated as "no measurement yet" (warm-up) and skipped.
  using Probe = std::function<double(const mdp::State&)>;

  /// ABR convenience constructor: monitors the newest measured chunk
  /// throughput from the Pensieve state encoding.
  NoveltyDetector(NoveltyDetectorConfig config,
                  const abr::AbrStateLayout& layout);

  /// Domain-agnostic constructor: monitors whatever scalar `probe`
  /// extracts from the state (e.g. the send/deliver ratio of a congestion
  /// control agent). OSAP itself is domain-independent (paper Section 2);
  /// only this observation probe is application-specific.
  NoveltyDetector(NoveltyDetectorConfig config, Probe probe);

  /// Extracts every feature vector from one session's chunk-throughput
  /// sequence (offline training-set construction).
  static std::vector<std::vector<double>> ExtractFeatures(
      std::span<const double> throughput_sequence,
      const NoveltyDetectorConfig& config);

  /// Fits the OC-SVM on features extracted from training sessions.
  void Fit(const std::vector<std::vector<double>>& features);

  // UncertaintyEstimator
  void Reset() override;
  double Score(const mdp::State& state) override;
  bool Ready() const override { return ready_; }
  std::string Name() const override { return "novelty_detection"; }

  bool Fitted() const { return model_.Fitted(); }
  const svm::OneClassSvm& model() const { return model_; }
  /// The observation probe (shared by the serving path's per-session
  /// extractors so they see exactly the scalar Score would monitor).
  const Probe& probe() const { return probe_; }
  const NoveltyDetectorConfig& config() const { return config_; }

  /// Model persistence (the workbench caches fitted detectors).
  void Save(const std::filesystem::path& path) const;
  void LoadModel(const std::filesystem::path& path);

 private:
  NoveltyDetectorConfig config_;
  Probe probe_;
  svm::OneClassSvm model_;
  NoveltyFeatureExtractor extractor_;
  bool ready_ = false;
};

}  // namespace osap::core
