#include "core/workbench.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/logging.h"

namespace osap::core {
namespace {

using traces::DatasetId;

class WorkbenchTest : public ::testing::Test {
 protected:
  WorkbenchTest() : bench_(FastWorkbenchConfig()) {}
  Workbench bench_;
};

TEST_F(WorkbenchTest, SchemeNamesAreStable) {
  EXPECT_EQ(SchemeName(Scheme::kPensieve), "pensieve");
  EXPECT_EQ(SchemeName(Scheme::kNoveltyDetection), "nd");
  EXPECT_EQ(SchemeName(Scheme::kAgentEnsemble), "a_ensemble");
  EXPECT_EQ(SchemeName(Scheme::kValueEnsemble), "v_ensemble");
  EXPECT_EQ(SafetySchemes().size(), 3u);
}

TEST_F(WorkbenchTest, DatasetsAreMemoized) {
  const traces::Dataset& a = bench_.DatasetFor(DatasetId::kGamma22);
  const traces::Dataset& b = bench_.DatasetFor(DatasetId::kGamma22);
  EXPECT_EQ(&a, &b);
  EXPECT_FALSE(a.test.empty());
}

TEST_F(WorkbenchTest, BundleContainsAllArtifacts) {
  const TrainedBundle& bundle = bench_.BundleFor(DatasetId::kGamma22);
  EXPECT_EQ(bundle.agents.size(), bench_.config().ensemble_size);
  EXPECT_EQ(bundle.value_nets.size(), bench_.config().ensemble_size);
  ASSERT_NE(bundle.novelty, nullptr);
  EXPECT_TRUE(bundle.novelty->Fitted());
  EXPECT_GE(bundle.alpha_pi, 0.0);
  EXPECT_GE(bundle.alpha_v, 0.0);
}

TEST_F(WorkbenchTest, EvaluateIsMemoizedAndDeterministic) {
  const EvalResult& a =
      bench_.Evaluate(Scheme::kBufferBased, DatasetId::kGamma22,
                      DatasetId::kGamma22);
  const EvalResult& b =
      bench_.Evaluate(Scheme::kBufferBased, DatasetId::kGamma12,
                      DatasetId::kGamma22);  // baselines ignore train
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.per_trace_qoe.size(),
            bench_.DatasetFor(DatasetId::kGamma22).test.size());
}

TEST_F(WorkbenchTest, NormalizedAnchorsAreExact) {
  EXPECT_DOUBLE_EQ(bench_.NormalizedMean(Scheme::kRandom,
                                         DatasetId::kGamma22,
                                         DatasetId::kGamma22),
                   0.0);
  EXPECT_DOUBLE_EQ(bench_.NormalizedMean(Scheme::kBufferBased,
                                         DatasetId::kGamma22,
                                         DatasetId::kGamma22),
                   1.0);
}

TEST_F(WorkbenchTest, MakePolicyCoversAllSchemes) {
  for (Scheme scheme :
       {Scheme::kPensieve, Scheme::kBufferBased, Scheme::kRandom,
        Scheme::kNoveltyDetection, Scheme::kAgentEnsemble,
        Scheme::kValueEnsemble}) {
    const auto policy = bench_.MakePolicy(scheme, DatasetId::kGamma22);
    ASSERT_NE(policy, nullptr) << SchemeName(scheme);
  }
}

TEST_F(WorkbenchTest, SafetySchemePoliciesAreIndependent) {
  // Two ND policies must not share observation windows.
  const auto p1 =
      bench_.MakePolicy(Scheme::kNoveltyDetection, DatasetId::kGamma22);
  const auto p2 =
      bench_.MakePolicy(Scheme::kNoveltyDetection, DatasetId::kGamma22);
  EXPECT_NE(p1.get(), p2.get());
}

TEST_F(WorkbenchTest, CacheKeyChangesWithConfig) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  Workbench a(cfg);
  cfg.a2c.episodes += 1;
  Workbench b(cfg);
  EXPECT_NE(a.CacheKey(), b.CacheKey());
}

TEST(WorkbenchCache, SecondWorkbenchLoadsFromDisk) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.use_cache = true;
  cfg.cache_dir =
      std::filesystem::temp_directory_path() / "osap_wb_cache_test";
  std::filesystem::remove_all(cfg.cache_dir);
  {
    Workbench first(cfg);
    first.BundleFor(DatasetId::kGamma12);
  }
  Workbench second(cfg);
  const TrainedBundle& bundle = second.BundleFor(DatasetId::kGamma12);
  // Loading must produce the same evaluation results as training did.
  EXPECT_TRUE(bundle.novelty->Fitted());
  EXPECT_EQ(bundle.agents.size(), cfg.ensemble_size);
  std::filesystem::remove_all(cfg.cache_dir);
}

TEST(WorkbenchCache, CachedAgentsReproduceTrainedBehaviour) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.use_cache = true;
  cfg.cache_dir =
      std::filesystem::temp_directory_path() / "osap_wb_cache_test2";
  std::filesystem::remove_all(cfg.cache_dir);
  double trained_qoe = 0.0;
  {
    Workbench first(cfg);
    trained_qoe = first
                      .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                                DatasetId::kGamma12)
                      .MeanQoe();
  }
  Workbench second(cfg);
  const double loaded_qoe =
      second
          .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                    DatasetId::kGamma12)
          .MeanQoe();
  EXPECT_DOUBLE_EQ(trained_qoe, loaded_qoe);
  std::filesystem::remove_all(cfg.cache_dir);
}


TEST(WorkbenchCache, CorruptCacheFallsBackToRetraining) {
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.use_cache = true;
  cfg.cache_dir =
      std::filesystem::temp_directory_path() / "osap_wb_cache_test3";
  std::filesystem::remove_all(cfg.cache_dir);
  double trained_qoe = 0.0;
  {
    Workbench first(cfg);
    trained_qoe = first
                      .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                                DatasetId::kGamma12)
                      .MeanQoe();
  }
  // Corrupt every cached artifact.
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(cfg.cache_dir)) {
    if (entry.is_regular_file() &&
        entry.path().extension() == ".bin") {
      std::ofstream out(entry.path(), std::ios::trunc);
      out << "garbage";
    }
  }
  Workbench second(cfg);
  const double retrained_qoe =
      second
          .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                    DatasetId::kGamma12)
          .MeanQoe();
  // Training is deterministic, so the retrained agent matches.
  EXPECT_DOUBLE_EQ(trained_qoe, retrained_qoe);
  std::filesystem::remove_all(cfg.cache_dir);
}

// The tool and bench smokes run from a build directory whose osap_cache
// symlink points at the repo's cache root, which a fresh clone does not
// have yet. The first workbench must train into the link's target (a
// relative target resolves against the link's own directory) and the
// second must load every artifact from it.
TEST(WorkbenchCache, DanglingSymlinkCacheDirTrainsIntoLinkTarget) {
  const auto root =
      std::filesystem::temp_directory_path() / "osap_wb_cache_link_test";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  std::filesystem::create_symlink("missing_dir", root / "link");
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.use_cache = true;
  cfg.cache_dir = root / "link";
  double trained_qoe = 0.0;
  std::filesystem::path bundle_dir;
  {
    Workbench first(cfg);
    first.BundleFor(DatasetId::kGamma12);
    trained_qoe = first
                      .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                                DatasetId::kGamma12)
                      .MeanQoe();
    bundle_dir = root / "missing_dir" / first.CacheKey() /
                 traces::DatasetName(DatasetId::kGamma12);
  }
  for (const char* name : {"agent_0.bin", "value_0.bin", "ocsvm.bin",
                           "calibration.txt"}) {
    EXPECT_TRUE(std::filesystem::is_regular_file(bundle_dir / name)) << name;
  }

  const LogLevel level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  Workbench second(cfg);
  second.BundleFor(DatasetId::kGamma12);
  const std::string log = testing::internal::GetCapturedStderr();
  SetLogLevel(level);
  for (const char* line :
       {"loaded agent ensemble from cache", "loaded value ensemble from cache",
        "loaded OC-SVM from cache", "loaded calibration from cache"}) {
    EXPECT_NE(log.find(line), std::string::npos) << line << "\n" << log;
  }
  const double loaded_qoe =
      second
          .Evaluate(Scheme::kPensieve, DatasetId::kGamma12,
                    DatasetId::kGamma12)
          .MeanQoe();
  EXPECT_DOUBLE_EQ(trained_qoe, loaded_qoe);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace osap::core
