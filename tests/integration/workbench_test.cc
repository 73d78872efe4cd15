#include "core/workbench.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "nn/serialize.h"
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

std::string ReadWholeFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Child side of the cold-start race: waits on `go`, builds the bundle
/// against the shared cache with its log in `out/log.txt`, then dumps
/// every artifact it ended up holding into `out/`. Never returns.
[[noreturn]] void ColdStartChild(const WorkbenchConfig& cfg, int go,
                                 const std::filesystem::path& out) {
  int code = 1;
  try {
    std::filesystem::create_directories(out);
    if (std::freopen((out / "log.txt").c_str(), "w", stderr) == nullptr) {
      ::_exit(2);
    }
    SetLogLevel(LogLevel::kInfo);
    char byte = 0;
    (void)::read(go, &byte, 1);  // EOF once the parent releases everyone
    Workbench bench(cfg);
    const TrainedBundle& bundle = bench.BundleFor(DatasetId::kGamma12);
    for (std::size_t m = 0; m < bundle.agents.size(); ++m) {
      nn::SaveParamsToFile(out / ("agent_" + std::to_string(m) + ".bin"),
                           bundle.agents[m]->AllParams());
    }
    for (std::size_t m = 0; m < bundle.value_nets.size(); ++m) {
      nn::SaveParamsToFile(out / ("value_" + std::to_string(m) + ".bin"),
                           bundle.value_nets[m]->Params());
    }
    bundle.novelty->Save(out / "ocsvm.bin");
    std::ofstream calibration(out / "calibration.txt");
    calibration << std::hexfloat << bundle.nd_in_dist_qoe << ' '
                << bundle.alpha_pi << ' ' << bundle.alpha_v << '\n';
    code = calibration ? 0 : 1;
  } catch (...) {
    code = 1;
  }
  std::fflush(stderr);
  ::_exit(code);
}

TEST(WorkbenchCache, ConcurrentColdStartsTrainTheBundleOnce) {
  // Three processes start against one empty cache at the same instant.
  // The per-bundle lock lets exactly one train; the other two wait and
  // load its artifacts, so all three hold byte-identical bundles.
  const auto root =
      std::filesystem::temp_directory_path() /
      ("osap_wb_cold_start_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  WorkbenchConfig cfg = FastWorkbenchConfig();
  cfg.use_cache = true;
  cfg.cache_dir = root / "cache";
  cfg.threads = 1;  // a forked child must not rely on inherited workers

  int go[2];
  ASSERT_EQ(::pipe(go), 0);
  constexpr int kProcesses = 3;
  std::vector<pid_t> children;
  for (int i = 0; i < kProcesses; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(go[1]);
      ColdStartChild(cfg, go[0], root / ("child_" + std::to_string(i)));
    }
    children.push_back(pid);
  }
  ::close(go[0]);
  ::close(go[1]);  // release all children at once
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child " << pid << " status " << status;
  }

  const std::vector<std::string> loaded_lines = {
      "loaded agent ensemble from cache", "loaded value ensemble from cache",
      "loaded OC-SVM from cache", "loaded calibration from cache"};
  int trained = 0;
  for (int i = 0; i < kProcesses; ++i) {
    const std::string log =
        ReadWholeFile(root / ("child_" + std::to_string(i)) / "log.txt");
    std::size_t loads = 0;
    for (const std::string& line : loaded_lines) {
      loads += log.find(line) != std::string::npos ? 1 : 0;
    }
    EXPECT_TRUE(loads == 0 || loads == loaded_lines.size())
        << "child " << i << " mixed loading and training:\n" << log;
    if (loads == 0) ++trained;
  }
  EXPECT_EQ(trained, 1) << "exactly one cold start may train the bundle";

  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "child_0")) {
    if (entry.path().filename() != "log.txt") {
      names.push_back(entry.path().filename().string());
    }
  }
  EXPECT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    const std::string reference = ReadWholeFile(root / "child_0" / name);
    EXPECT_FALSE(reference.empty()) << name;
    for (int i = 1; i < kProcesses; ++i) {
      EXPECT_EQ(ReadWholeFile(root / ("child_" + std::to_string(i)) / name),
                reference)
          << name << " differs in child " << i;
    }
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace osap::core
