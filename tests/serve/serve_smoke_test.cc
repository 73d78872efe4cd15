// Thread-sanitizer smoke for the DecisionService persistent shard workers.
//
// Runs mixed in-distribution / out-of-distribution viewers through a
// 4-shard service whose shards 1..3 live on persistent worker threads
// (epoch-ticket handoff) and checks the answers against a single-shard
// service (serial by construction: no workers) round for round. A second
// scenario churns the session set - viewers joining and leaving between
// epochs - while the workers stay parked, exercising the claim that the
// epoch ticket's release/acquire edge publishes membership changes to
// the worker that owns the session's shard. Built into its own binary so
// the sanitize ctest label can select it; under TSan this exercises the
// claim that shards touch disjoint sessions and output slots and that the
// ring/ticket handoff is properly ordered.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "abr/abr_environment.h"
#include "abr/video.h"
#include "core/novelty_detector.h"
#include "policies/pensieve_net.h"
#include "serve/decision_service.h"
#include "serve/serving_model.h"
#include "traces/generators.h"

namespace osap::serve {
namespace {

constexpr std::size_t kSessions = 12;
constexpr std::size_t kRounds = 40;

struct SmokeWorld {
  abr::AbrStateLayout layout;
  abr::VideoSpec video = abr::MakeEnvivioLikeVideo(1);
  std::vector<std::shared_ptr<nn::ActorCriticNet>> agents;
  std::shared_ptr<core::NoveltyDetector> novelty;
  std::vector<traces::Trace> traces;
};

SmokeWorld MakeSmokeWorld() {
  SmokeWorld w;
  policies::PensieveNetConfig net;
  net.conv_filters = 2;
  net.hidden = 6;
  Rng rng(5);
  for (std::size_t m = 0; m < 3; ++m) {
    w.agents.push_back(std::make_shared<nn::ActorCriticNet>(
        policies::MakePensieveActorCritic(w.layout, net, rng)));
  }
  const auto id_gen = traces::MakeNorway3gGenerator();
  const auto ood_gen = traces::MakeBelgium4gGenerator();
  Rng trace_rng(7);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& gen = i % 2 == 0 ? id_gen : ood_gen;
    w.traces.push_back(gen->Generate(trace_rng, 150.0, i));
  }
  core::NoveltyDetectorConfig nd;
  nd.throughput_window = 3;
  nd.k = 2;
  std::vector<std::vector<double>> features;
  for (std::size_t i = 0; i < 3; ++i) {
    const traces::Trace t = id_gen->Generate(trace_rng, 300.0, 50 + i);
    const auto f = core::NoveltyDetector::ExtractFeatures(t.samples(), nd);
    features.insert(features.end(), f.begin(), f.end());
  }
  w.novelty = std::make_shared<core::NoveltyDetector>(nd, w.layout);
  w.novelty->Fit(features);
  return w;
}

std::shared_ptr<const ServingModel> SmokeModel(const SmokeWorld& w,
                                               Signal signal) {
  core::SafeAgentConfig safety;
  safety.trigger.l = 2;
  safety.trigger.k = 4;
  if (signal == Signal::kNovelty) {
    safety.trigger.mode = core::TriggerMode::kBinary;
    return ServingModel::Novelty(w.agents, w.novelty, w.video, w.layout,
                                 safety);
  }
  safety.trigger.mode = core::TriggerMode::kWindowVariance;
  safety.trigger.alpha = 1e-4;
  return ServingModel::AgentEnsemble(w.agents, 1, w.video, w.layout, safety);
}

/// Drives the worker-backed and serial services in lockstep over the same
/// closed-loop sessions and compares every answer. Both have one
/// submitter group, so their session ids agree (id = open order).
void RunSmoke(const SmokeWorld& w, Signal signal) {
  DecisionService parallel(SmokeModel(w, signal),
                           DecisionServiceConfig{.shard_count = 4});
  ASSERT_EQ(parallel.WorkerCount(), 3u);

  DecisionService serial(SmokeModel(w, signal));  // one shard, no workers
  ASSERT_EQ(serial.WorkerCount(), 0u);

  std::vector<DecisionService::SessionId> ids(kSessions);
  std::vector<abr::AbrEnvironment> envs;
  envs.reserve(kSessions);
  std::vector<mdp::State> states(kSessions);
  std::vector<bool> done(kSessions, false);
  for (std::size_t i = 0; i < kSessions; ++i) {
    ids[i] = parallel.OpenSession();
    const auto serial_id = serial.OpenSession();
    ASSERT_EQ(ids[i], serial_id);
    envs.emplace_back(w.video, abr::AbrEnvironmentConfig{});
    envs[i].SetFixedTrace(w.traces[i]);
    states[i] = envs[i].Reset();
  }

  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> parallel_out;
  std::vector<mdp::Action> serial_out;
  std::vector<std::size_t> request_session;
  for (std::size_t round = 0; round < kRounds; ++round) {
    requests.clear();
    request_session.clear();
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (done[i]) continue;
      requests.push_back({ids[i], &states[i]});
      request_session.push_back(i);
    }
    if (requests.empty()) break;
    parallel_out.resize(requests.size());
    serial_out.resize(requests.size());
    parallel.DecideBatch(requests, parallel_out);
    serial.DecideBatch(requests, serial_out);
    ASSERT_EQ(parallel_out, serial_out) << "round " << round;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      const std::size_t i = request_session[j];
      mdp::StepResult result = envs[i].Step(parallel_out[j]);
      states[i] = std::move(result.next_state);
      done[i] = result.done;
    }
  }
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(parallel.Defaulted(ids[i]), serial.Defaulted(ids[i]));
    EXPECT_EQ(parallel.StepCount(ids[i]), serial.StepCount(ids[i]));
  }
}

TEST(ServeSmoke, NoveltyShardsRaceFree) {
  RunSmoke(MakeSmokeWorld(), Signal::kNovelty);
}

TEST(ServeSmoke, AgentEnsembleShardsRaceFree) {
  RunSmoke(MakeSmokeWorld(), Signal::kAgentEnsemble);
}

/// Session churn between epochs while the workers persist: every few
/// rounds one viewer leaves (its slot is recycled by a fresh viewer on a
/// different trace) and an extra viewer joins, so ring sizes grow, shard
/// membership shifts, and recycled SessionContexts cross the epoch
/// ticket into the worker threads. Answers must still match the serial
/// service performing the identical churn.
TEST(ServeSmoke, SessionChurnAcrossEpochs) {
  const SmokeWorld w = MakeSmokeWorld();
  DecisionService parallel(SmokeModel(w, Signal::kNovelty),
                           DecisionServiceConfig{.shard_count = 4});
  DecisionService serial(SmokeModel(w, Signal::kNovelty));

  // One live viewer per id; churn keeps both services' id assignments in
  // lockstep so the comparison stays exact.
  struct Viewer {
    DecisionService::SessionId id = 0;
    abr::AbrEnvironment env;
    mdp::State state;
  };
  std::vector<Viewer> viewers;
  std::size_t next_trace = 0;
  const auto join = [&] {
    Viewer v{parallel.OpenSession(),
             abr::AbrEnvironment(w.video, abr::AbrEnvironmentConfig{}),
             {}};
    const auto serial_id = serial.OpenSession();
    ASSERT_EQ(v.id, serial_id);
    v.env.SetFixedTrace(w.traces[next_trace++ % w.traces.size()]);
    v.state = v.env.Reset();
    viewers.push_back(std::move(v));
  };
  for (std::size_t i = 0; i < 6; ++i) join();

  std::vector<DecisionService::Request> requests;
  std::vector<mdp::Action> parallel_out;
  std::vector<mdp::Action> serial_out;
  for (std::size_t round = 0; round < kRounds; ++round) {
    if (round % 5 == 3 && !viewers.empty()) {
      // One viewer leaves mid-run; both services retire the same id.
      const std::size_t leaver = round % viewers.size();
      parallel.CloseSession(viewers[leaver].id);
      serial.CloseSession(viewers[leaver].id);
      viewers.erase(viewers.begin() + static_cast<std::ptrdiff_t>(leaver));
    }
    if (round % 4 == 1) join();  // and another joins (may recycle the slot)
    requests.clear();
    for (Viewer& v : viewers) requests.push_back({v.id, &v.state});
    parallel_out.resize(requests.size());
    serial_out.resize(requests.size());
    parallel.DecideBatch(requests, parallel_out);
    serial.DecideBatch(requests, serial_out);
    ASSERT_EQ(parallel_out, serial_out) << "round " << round;
    for (std::size_t j = 0; j < viewers.size(); ++j) {
      mdp::StepResult result = viewers[j].env.Step(parallel_out[j]);
      viewers[j].state = std::move(result.next_state);
      if (result.done) viewers[j].state = viewers[j].env.Reset();
    }
  }
  EXPECT_EQ(parallel.ActiveSessionCount(), serial.ActiveSessionCount());
}

}  // namespace
}  // namespace osap::serve
