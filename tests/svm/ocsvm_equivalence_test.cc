// Equivalence tests for the contiguous OC-SVM decision kernel: the
// norm-expansion linear scan must match the classic per-support-vector
// RBF evaluation, and Save/Load must round-trip the flattened
// representation exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "svm/ocsvm.h"
#include "util/rng.h"

namespace osap::svm {
namespace {

/// The model's persisted parameters, read back from the "OSAPSVM1" file.
/// Save writes the scaled-space support vectors, so this gives the test an
/// exact view of the flattened representation without widening the API.
struct SavedModel {
  std::uint64_t count = 0;
  std::uint64_t dim = 0;
  double rho = 0.0;
  double gamma = 0.0;
  std::vector<double> mean, stddev;
  std::vector<double> alphas;
  std::vector<std::vector<double>> svs;  // scaled space
};

SavedModel ParseSaved(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  char magic[8];
  in.read(magic, sizeof(magic));
  EXPECT_EQ(std::memcmp(magic, "OSAPSVM1", 8), 0);
  SavedModel m;
  const auto f64 = [&in] {
    double v = 0.0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  in.read(reinterpret_cast<char*>(&m.count), sizeof(m.count));
  in.read(reinterpret_cast<char*>(&m.dim), sizeof(m.dim));
  m.rho = f64();
  m.gamma = f64();
  f64();  // nu (unused by the reference decision)
  for (std::uint64_t d = 0; d < m.dim; ++d) m.mean.push_back(f64());
  for (std::uint64_t d = 0; d < m.dim; ++d) m.stddev.push_back(f64());
  for (std::uint64_t i = 0; i < m.count; ++i) {
    m.alphas.push_back(f64());
    std::vector<double> sv;
    for (std::uint64_t d = 0; d < m.dim; ++d) sv.push_back(f64());
    m.svs.push_back(std::move(sv));
  }
  EXPECT_TRUE(in.good());
  return m;
}

/// The pre-optimization reference: per-vector squared distance, one RBF
/// kernel evaluation per support vector.
double ReferenceDecision(const SavedModel& m, const std::vector<double>& x) {
  std::vector<double> scaled(x.size());
  for (std::size_t d = 0; d < x.size(); ++d) {
    scaled[d] = (x[d] - m.mean[d]) / m.stddev[d];
  }
  double f = 0.0;
  for (std::uint64_t i = 0; i < m.count; ++i) {
    double dist_sq = 0.0;
    for (std::uint64_t d = 0; d < m.dim; ++d) {
      const double diff = scaled[d] - m.svs[i][d];
      dist_sq += diff * diff;
    }
    f += m.alphas[i] * std::exp(-m.gamma * dist_sq);
  }
  return f - m.rho;
}

std::vector<std::vector<double>> TrainingBlob(std::size_t n, Rng& rng) {
  std::vector<std::vector<double>> data;
  for (std::size_t i = 0; i < n; ++i) {
    data.push_back({rng.Normal(3.0, 0.5), rng.Normal(0.5, 0.1),
                    rng.Normal(-1.0, 2.0)});
  }
  return data;
}

TEST(OcSvmEquivalence, ContiguousScanMatchesPerVectorReference) {
  Rng rng(17);
  OneClassSvm model;
  model.Fit(TrainingBlob(300, rng));
  ASSERT_TRUE(model.Fitted());

  const auto path = std::filesystem::temp_directory_path() /
                    "osap_svm_equiv_scan" / "model.bin";
  model.Save(path);
  const SavedModel saved = ParseSaved(path);
  ASSERT_EQ(saved.count, model.SupportVectorCount());

  // Probe both in-distribution and far-OOD points, including the training
  // rows themselves.
  std::vector<std::vector<double>> probes = TrainingBlob(40, rng);
  probes.push_back({100.0, -50.0, 7.0});
  probes.push_back({0.0, 0.0, 0.0});
  for (const auto& x : probes) {
    EXPECT_NEAR(model.DecisionValue(x), ReferenceDecision(saved, x), 1e-12);
  }
  std::filesystem::remove_all(path.parent_path());
}

TEST(OcSvmEquivalence, SaveLoadRoundTripsFlattenedRepresentationExactly) {
  Rng rng(23);
  OneClassSvm model;
  model.Fit(TrainingBlob(200, rng));

  const auto path =
      std::filesystem::temp_directory_path() / "osap_svm_equiv_rt" / "rt.bin";
  model.Save(path);
  const OneClassSvm loaded = OneClassSvm::Load(path);

  EXPECT_EQ(loaded.SupportVectorCount(), model.SupportVectorCount());
  EXPECT_EQ(loaded.rho(), model.rho());
  EXPECT_EQ(loaded.gamma(), model.gamma());
  // Decisions must be bit-identical: the file stores the exact doubles of
  // the flattened buffer and Load recomputes the squared norms from them.
  for (const auto& x : TrainingBlob(25, rng)) {
    EXPECT_EQ(loaded.DecisionValue(x), model.DecisionValue(x));
  }
  std::filesystem::remove_all(path.parent_path());
}

}  // namespace
}  // namespace osap::svm
