// One-class support vector machine (Scholkopf, Platt, Shawe-Taylor, Smola,
// Williamson, "Estimating the support of a high-dimensional distribution",
// Neural Computation 2001) - the novelty-detection method the paper adopts
// for the U_S uncertainty signal (Sections 2.4 and 3.1).
//
// We solve the libsvm-style dual
//     min_alpha 1/2 alpha^T Q alpha
//     s.t. 0 <= alpha_i <= 1,  sum_i alpha_i = nu * n,
// with Q_ij = k(x_i, x_j), by SMO with maximal-violating-pair working-set
// selection. The decision function is
//     f(x) = sum_i alpha_i k(x_i, x) - rho,
// with f(x) >= 0 classifying x as in-distribution (+1) and f(x) < 0 as
// out-of-distribution (-1). nu upper-bounds the fraction of training
// outliers and lower-bounds the fraction of support vectors (the
// "nu-property", verified in tests).
#pragma once

#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "svm/kernel.h"
#include "svm/scaler.h"

namespace osap::svm {

struct OcSvmConfig {
  /// Outlier-fraction parameter in (0, 1).
  double nu = 0.05;
  /// RBF gamma; <= 0 selects the "scale" heuristic from the training data.
  double gamma = 0.0;
  /// KKT violation tolerance for SMO termination.
  double tolerance = 1e-4;
  /// Hard cap on SMO iterations (safety net; reported via iterations()).
  std::size_t max_iterations = 200000;
  /// If > 0 and the training set is larger, a deterministic uniform
  /// subsample of this size is used (keeps the n^2 kernel matrix bounded).
  std::size_t max_samples = 3000;
  /// Standardize features before the kernel (recommended; the paper's
  /// features mix throughput means and standard deviations).
  bool standardize = true;
  /// Budget for the working-set solver's LRU kernel-row cache, in MiB.
  /// Rows are computed lazily on demand, so fit cost tracks the rows the
  /// SMO loop actually touches instead of the full n^2 kernel matrix.
  std::size_t kernel_cache_mb = 16;
  /// Shrink the working set every this many SMO iterations (0 disables
  /// shrinking). Shrinking is bit-exact: a drift-bound guard unshrinks
  /// (and replays the skipped gradient updates in order) before a shrunk
  /// point could ever alter pair selection.
  std::size_t shrink_interval = 64;
  /// Force the original dense solver (full n^2 kernel precompute). The
  /// working-set solver is bit-identical to it - this switch exists for the
  /// equivalence tests and as an escape hatch.
  bool dense_solver = false;
};

/// Trained one-class SVM model.
class OneClassSvm {
 public:
  explicit OneClassSvm(OcSvmConfig config = {});

  /// Fits the model on in-distribution training rows (all same length).
  /// Throws std::invalid_argument on empty/ragged data or invalid config.
  void Fit(const std::vector<std::vector<double>>& data);

  /// Signed decision value f(x); >= 0 means in-distribution.
  double DecisionValue(std::span<const double> x) const;

  /// Batched decision values over `count` contiguous row-major samples
  /// (count x Dimension()). out[i] is bit-identical to DecisionValue on
  /// row i. On AVX2 hosts (unless OSAP_NO_AVX2 is set) blocks of four
  /// samples ride the four lanes of a vector register: the kernel
  /// vectorizes across samples only, so each sample keeps its scalar
  /// accumulation chain (SV-ascending additions, no FMA) and every
  /// kernel term still goes through scalar std::exp - hence bit-identity
  /// with the scalar scan, which handles non-AVX2 hosts and the tail
  /// samples. The scalar scan is SV-outer/sample-inner: every SV row
  /// streams once for the whole batch instead of once per sample.
  void DecisionValues(const double* rows, std::size_t count,
                      std::span<double> out) const;

  /// True when x is classified as in-distribution (+1).
  bool IsInlier(std::span<const double> x) const { return DecisionValue(x) >= 0.0; }

  /// Fraction of the given rows classified as inliers.
  double InlierFraction(const std::vector<std::vector<double>>& data) const;

  bool Fitted() const { return sv_count_ > 0; }
  std::size_t SupportVectorCount() const { return sv_count_; }
  /// Input dimensionality of the fitted model.
  std::size_t Dimension() const { return sv_dim_; }
  double rho() const { return rho_; }
  double gamma() const { return gamma_; }
  std::size_t iterations() const { return iterations_; }
  const OcSvmConfig& config() const { return config_; }

  /// Model (de)serialization: support vectors, alphas, rho, gamma, scaler.
  /// Save replaces the file atomically (util::WriteFileAtomically).
  void Save(const std::filesystem::path& path) const;
  static OneClassSvm Load(const std::filesystem::path& path);

 private:
  /// Portable batch scan (also the AVX2 path's tail handler): scales the
  /// samples, then one SV-outer/sample-inner pass.
  void DecisionValuesScalar(const double* rows, std::size_t count,
                            std::span<double> out) const;

  OcSvmConfig config_;
  double gamma_ = 0.0;  // resolved gamma actually used
  StandardScaler scaler_;
  // Support vectors flattened into one contiguous row-major buffer
  // (sv_count_ x sv_dim_, scaled space) with precomputed squared norms, so
  // DecisionValue is one linear scan using the norm expansion
  //   k(x, sv_i) = exp(-gamma (|x|^2 - 2 x.sv_i + |sv_i|^2)).
  std::vector<double> sv_data_;
  std::vector<double> sv_sq_norms_;
  std::vector<double> alphas_;  // aligned with SV rows
  std::size_t sv_count_ = 0;
  std::size_t sv_dim_ = 0;
  double rho_ = 0.0;
  std::size_t iterations_ = 0;
};

}  // namespace osap::svm
