#include "core/novelty_detector.h"

#include "util/check.h"

namespace osap::core {

namespace {

void ValidateExtractorConfig(const NoveltyDetectorConfig& config) {
  OSAP_REQUIRE(config.throughput_window >= 2,
               "NoveltyDetector: throughput window must be >= 2");
  OSAP_REQUIRE(config.k >= 1, "NoveltyDetector: k must be >= 1");
}

/// Validates config + window storage and returns the window's slice.
std::span<double> WindowSlice(const NoveltyDetectorConfig& config,
                              std::span<double> window) {
  ValidateExtractorConfig(config);
  OSAP_REQUIRE(
      window.size() >= NoveltyFeatureExtractor::WindowDoubles(config),
      "NoveltyFeatureExtractor: window storage too small");
  return window.first(config.throughput_window);
}

}  // namespace

NoveltyFeatureExtractor::NoveltyFeatureExtractor(
    const NoveltyDetectorConfig& config)
    : window_((ValidateExtractorConfig(config), config.throughput_window)),
      owned_pairs_(new double[2 * config.k]),
      k_(static_cast<std::uint32_t>(config.k)) {
  pairs_ = owned_pairs_.get();
}

NoveltyFeatureExtractor::NoveltyFeatureExtractor(
    const NoveltyDetectorConfig& config, std::span<double> window)
    : window_(WindowSlice(config, window)),
      k_(static_cast<std::uint32_t>(config.k)) {}

NoveltyFeatureExtractor::~NoveltyFeatureExtractor() = default;

NoveltyFeatureExtractor::NoveltyFeatureExtractor(
    const NoveltyFeatureExtractor& other)
    : window_(other.window_),  // deep copy into owned storage
      owned_pairs_(new double[2 * other.k_]),
      k_(other.k_),
      head_(other.head_),
      count_(other.count_) {
  pairs_ = owned_pairs_.get();
  // Only the populated region is meaningful (head_ stays 0 until the ring
  // fills, so the valid pairs are the first count_ when warming up and
  // all k_ once full).
  const std::uint32_t valid = 2 * (count_ < k_ ? count_ : k_);
  for (std::uint32_t i = 0; i < valid; ++i) pairs_[i] = other.pairs_[i];
}

NoveltyFeatureExtractor& NoveltyFeatureExtractor::operator=(
    const NoveltyFeatureExtractor& other) {
  if (this == &other) return *this;
  NoveltyFeatureExtractor copy(other);
  *this = std::move(copy);
  return *this;
}

NoveltyFeatureExtractor::NoveltyFeatureExtractor(
    NoveltyFeatureExtractor&& other) noexcept
    : window_(std::move(other.window_)),
      pairs_(other.pairs_),
      owned_pairs_(std::move(other.owned_pairs_)),
      k_(other.k_),
      head_(other.head_),
      count_(other.count_) {
  other.pairs_ = nullptr;
  other.k_ = other.head_ = other.count_ = 0;
}

NoveltyFeatureExtractor& NoveltyFeatureExtractor::operator=(
    NoveltyFeatureExtractor&& other) noexcept {
  if (this == &other) return *this;
  window_ = std::move(other.window_);
  owned_pairs_ = std::move(other.owned_pairs_);
  pairs_ = other.pairs_;
  k_ = other.k_;
  head_ = other.head_;
  count_ = other.count_;
  other.pairs_ = nullptr;
  other.k_ = other.head_ = other.count_ = 0;
  return *this;
}

std::optional<std::vector<double>> NoveltyFeatureExtractor::Push(
    double throughput_mbps) {
  std::vector<double> feature(2 * static_cast<std::size_t>(k_));
  if (!Push(throughput_mbps, feature)) return std::nullopt;
  return feature;
}

bool NoveltyFeatureExtractor::Push(double throughput_mbps,
                                   std::span<double> out) {
  OSAP_REQUIRE(out.size() >= 2 * static_cast<std::size_t>(k_),
               "NoveltyFeatureExtractor::Push: output span too short");
  OSAP_REQUIRE(!NeedsPairs(),
               "NoveltyFeatureExtractor::Push: attach a pair ring first");
  window_.Push(throughput_mbps);
  if (!window_.Full()) return false;
  // Overwrite the oldest slot; until the ring fills, the oldest slot is
  // simply the next unused one.
  const std::uint32_t slot = (head_ + count_) % k_;
  pairs_[2 * slot] = window_.Mean();
  pairs_[2 * slot + 1] = window_.StdDev();
  if (count_ < k_) {
    ++count_;
  } else {
    head_ = (head_ + 1) % k_;
  }
  if (count_ < k_) return false;
  std::size_t i = 0;
  for (std::uint32_t p = 0; p < k_; ++p) {
    const std::uint32_t source = (head_ + p) % k_;
    out[i++] = pairs_[2 * source];
    out[i++] = pairs_[2 * source + 1];
  }
  return true;
}

void NoveltyFeatureExtractor::Reset() {
  window_.Reset();
  head_ = 0;
  count_ = 0;
}

void NoveltyFeatureExtractor::AttachPairs(std::span<double> pairs) {
  OSAP_REQUIRE(pairs_ == nullptr,
               "NoveltyFeatureExtractor::AttachPairs: a ring is attached");
  OSAP_REQUIRE(pairs.size() >= 2 * static_cast<std::size_t>(k_),
               "NoveltyFeatureExtractor::AttachPairs: ring too small");
  pairs_ = pairs.data();
}

void NoveltyFeatureExtractor::DetachPairs() {
  OSAP_REQUIRE(owned_pairs_ == nullptr,
               "NoveltyFeatureExtractor::DetachPairs: the ring is owned");
  Reset();
  pairs_ = nullptr;
}

NoveltyDetector::NoveltyDetector(NoveltyDetectorConfig config,
                                 const abr::AbrStateLayout& layout)
    : NoveltyDetector(config, [layout](const mdp::State& s) {
        OSAP_REQUIRE(s.size() == layout.Size(),
                     "NoveltyDetector: state size mismatch");
        return layout.LatestThroughputMbps(s);
      }) {}

NoveltyDetector::NoveltyDetector(NoveltyDetectorConfig config, Probe probe)
    : config_(config),
      probe_(std::move(probe)),
      model_(config.svm),
      extractor_(config) {
  OSAP_REQUIRE(probe_ != nullptr, "NoveltyDetector: null probe");
}

std::vector<std::vector<double>> NoveltyDetector::ExtractFeatures(
    std::span<const double> throughput_sequence,
    const NoveltyDetectorConfig& config) {
  NoveltyFeatureExtractor extractor(config);
  std::vector<std::vector<double>> features;
  for (double mbps : throughput_sequence) {
    if (auto feature = extractor.Push(mbps)) {
      features.push_back(std::move(*feature));
    }
  }
  return features;
}

void NoveltyDetector::Fit(
    const std::vector<std::vector<double>>& features) {
  OSAP_REQUIRE(!features.empty(),
               "NoveltyDetector::Fit: no features (sessions too short for "
               "the configured window and k?)");
  model_.Fit(features);
}

void NoveltyDetector::Reset() {
  extractor_.Reset();
  ready_ = false;
}

double NoveltyDetector::Score(const mdp::State& state) {
  OSAP_REQUIRE(Fitted(), "NoveltyDetector::Score before Fit/LoadModel");
  const double observation = probe_(state);
  // Warm-up steps (before the first measurement) report non-positive
  // observations; feeding those would poison the window.
  if (observation <= 0.0) return 0.0;
  const auto feature = extractor_.Push(observation);
  if (!feature.has_value()) {
    ready_ = false;
    return 0.0;
  }
  ready_ = true;
  return model_.IsInlier(*feature) ? 0.0 : 1.0;
}

void NoveltyDetector::Save(const std::filesystem::path& path) const {
  model_.Save(path);
}

void NoveltyDetector::LoadModel(const std::filesystem::path& path) {
  model_ = svm::OneClassSvm::Load(path);
}

}  // namespace osap::core
