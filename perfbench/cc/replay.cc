// In-process replays of a wire run's request stream, plus the deployment
// and preparation helpers they share with the server.
//
// ReplayService feeds each slot's stream prefix (as far as the wire run
// got) through serve::DecisionService in rounds and digests the replies;
// its digest must equal the wire run's. ReplayLayers composes the same
// decisions from the layers' public functions and times each group of
// calls - the per-layer spans - from here, outside the program.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "abr/abr_environment.h"
#include "bench.h"
#include "core/novelty_detector.h"
#include "core/safety_core.h"
#include "net/protocol.h"
#include "serve/decision_service.h"
#include "traces/dataset.h"

namespace perfbench {

namespace core = osap::core;
namespace serve = osap::serve;
namespace net = osap::net;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Per-slot cursor over a stream prefix (shared by both replays).
struct Cursor {
  SlotStream stream;
  std::uint64_t remaining;
  SlotDigest digest;
  bool reopen = false;  // the previous step ended a lifetime
};

struct Streams {
  std::vector<std::vector<std::uint32_t>> by_dataset;
  std::vector<Cursor> cursors;

  Streams(const Workload& workload, const Trajectories& traj,
          std::uint64_t seed, const std::vector<std::uint64_t>& steps) {
    for (std::uint32_t d = 0; d < kDatasets; ++d) {
      by_dataset.push_back(traj.OfDataset(d));
    }
    cursors.reserve(steps.size());
    for (std::size_t s = 0; s < steps.size(); ++s) {
      cursors.push_back(
          {SlotStream(workload, traj, by_dataset, seed, s), steps[s], {}});
    }
  }
};

}  // namespace

// --- deployment (mirrors tools/osap_serve.cpp --listen) ---------------

std::unique_ptr<core::Workbench> OpenWorkbench(const fs::path& work) {
  core::WorkbenchConfig cfg;
  cfg.use_cache = true;
  cfg.cache_dir = work / "osap_cache";
  return std::make_unique<core::Workbench>(cfg);
}

std::shared_ptr<const serve::ServingModel> BuildModel(
    core::Workbench& bench, const std::string& signal) {
  const core::TrainedBundle& bundle =
      bench.BundleFor(osap::traces::DatasetId::kGamma22);
  core::SafeAgentConfig safety;
  safety.mode = core::DefaultingMode::kPermanent;
  safety.trigger.l = bench.config().trigger_l;
  safety.trigger.k = bench.config().trigger_k;
  if (signal == "us") {
    safety.trigger.mode = core::TriggerMode::kBinary;
    return serve::ServingModel::Novelty(bundle.agents, bundle.novelty,
                                        bench.eval_video(), bench.layout(),
                                        safety);
  }
  if (signal != "upi") throw std::invalid_argument("signal " + signal);
  safety.trigger.mode = core::TriggerMode::kWindowVariance;
  safety.trigger.alpha = bundle.alpha_pi;
  return serve::ServingModel::AgentEnsemble(
      bundle.agents, bench.config().ensemble_discard, bench.eval_video(),
      bench.layout(), safety);
}

fs::path TrajectoryFile(const fs::path& work) {
  return work / "trajectories.bin";
}

void Prepare(const fs::path& work) {
  fs::create_directories(work / "osap_cache");
  auto bench = OpenWorkbench(work);
  const auto model = BuildModel(*bench, "us");  // trains on first use
  // Record every test trace's decision states under the deployed actor's
  // greedy actions (the learned policy an in-distribution viewer gets).
  Trajectories t;
  t.dim = model->InputSize();
  t.steps = bench->eval_video().ChunkCount();
  osap::nn::Matrix row(1, t.dim);
  std::vector<osap::mdp::Action> action(1);
  const auto ids = osap::traces::AllDatasetIds();
  for (std::uint32_t d = 0; d < ids.size(); ++d) {
    for (const auto& trace : bench->DatasetFor(ids[d]).test) {
      osap::abr::AbrEnvironment env = bench->MakeEvalEnvironment();
      env.SetFixedTrace(trace);
      osap::mdp::State s = env.Reset();
      for (std::size_t k = 0; k < t.steps; ++k) {
        if (s.size() != t.dim) throw std::runtime_error("state width");
        t.states.insert(t.states.end(), s.begin(), s.end());
        std::copy(s.begin(), s.end(), row.Row(0).data());
        model->GreedyActions(row, action);
        osap::mdp::StepResult r = env.Step(action[0]);
        if (r.done != (k + 1 == t.steps)) {
          throw std::runtime_error("episode length differs from the video");
        }
        s = std::move(r.next_state);
      }
      t.dataset.push_back(d);
    }
  }
  t.Save(TrajectoryFile(work));
  // The marker perfbench/run.py checks, written last.
  std::ofstream(work / "prepared") << "ok\n";
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

// --- service replay ---------------------------------------------------

ReplayResult ReplayService(std::shared_ptr<const serve::ServingModel> model,
                           const Workload& workload, const Trajectories& traj,
                           std::uint64_t seed,
                           const std::vector<std::uint64_t>& steps,
                           std::size_t batch, bool traced) {
  Streams streams(workload, traj, seed, steps);
  std::vector<Cursor>& cur = streams.cursors;
  const std::size_t n = cur.size();
  ReplayResult r;
  const auto start = Clock::now();
  serve::DecisionServiceConfig cfg;
  cfg.shard_count = kShards;
  serve::DecisionService service(model, cfg);

  std::vector<serve::DecisionService::SessionId> session(n);
  auto open = [&](std::size_t s) {
    if (!traced) {
      session[s] = service.OpenSession();
      return;
    }
    const auto t0 = Clock::now();
    session[s] = service.OpenSession();
    r.open_s += Seconds(t0, Clock::now());
    ++r.opens;
  };
  auto close = [&](std::size_t s) {
    if (!traced) return service.CloseSession(session[s]);
    const auto t0 = Clock::now();
    service.CloseSession(session[s]);
    r.close_s += Seconds(t0, Clock::now());
    ++r.closes;
  };
  for (std::size_t s = 0; s < n; ++s) open(s);

  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < n; ++s) {
    if (cur[s].remaining > 0) active.push_back(s);
  }
  std::vector<osap::mdp::State> state(n);
  std::vector<serve::DecisionService::Request> requests;
  std::vector<osap::mdp::Action> actions;
  while (!active.empty()) {
    requests.clear();
    for (std::size_t s : active) {
      if (cur[s].reopen) {
        close(s);
        open(s);
        cur[s].reopen = false;
      }
      const double* x = cur[s].stream.State();
      state[s].assign(x, x + traj.dim);
      requests.push_back({session[s], &state[s]});
    }
    actions.resize(requests.size());
    const std::size_t step = batch == 0 ? requests.size() : batch;
    for (std::size_t at = 0; at < requests.size(); at += step) {
      const std::size_t count = std::min(step, requests.size() - at);
      const std::span<const serve::DecisionService::Request> part(
          requests.data() + at, count);
      const std::span<osap::mdp::Action> out(actions.data() + at, count);
      if (!traced) {
        service.DecideBatch(part, out);
        continue;
      }
      const auto t0 = Clock::now();
      service.DecideBatch(part, out);
      const double dt = Seconds(t0, Clock::now());
      r.decide_s += dt;
      r.decide_us.push_back(dt * 1e6);
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::size_t s = active[i];
      const bool defaulted = service.Defaulted(session[s]);
      cur[s].digest.Step(actions[i], defaulted);
      const std::size_t d = cur[s].stream.dataset();
      ++r.per_dataset[d];
      r.defaulted[d] += defaulted ? 1 : 0;
      if (cur[s].stream.Advance()) {
        cur[s].digest.Boundary();
        cur[s].reopen = true;
      }
      if (--cur[s].remaining > 0) active[kept++] = s;
    }
    active.resize(kept);
    r.decisions += requests.size();
  }
  r.bytes_per_session = service.MemoryStats().BytesPerSession();
  for (std::size_t s = 0; s < n; ++s) close(s);
  r.wall_s = Seconds(start, Clock::now());

  std::vector<SlotDigest> digests(n);
  for (std::size_t s = 0; s < n; ++s) digests[s] = cur[s].digest;
  r.digest = CombineDigests(digests, steps);
  return r;
}

// --- layer replay -----------------------------------------------------

LayerResult ReplayLayers(std::shared_ptr<const serve::ServingModel> served,
                         std::shared_ptr<const serve::ServingModel> us_model,
                         std::shared_ptr<const serve::ServingModel> upi_model,
                         const Workload& workload, const Trajectories& traj,
                         std::uint64_t seed,
                         const std::vector<std::uint64_t>& steps) {
  // Layers the served signal does not need are timed on at most this many
  // rows (and calls of at most that size), so the replay stays short on
  // every workload.
  constexpr std::uint64_t kSideCap = 20000;
  auto SideLeft = [](std::uint64_t done) -> std::size_t {
    return done < kSideCap ? kSideCap - done : 0;
  };
  Streams streams(workload, traj, seed, steps);
  std::vector<Cursor>& cur = streams.cursors;
  const std::size_t n = cur.size();
  const std::size_t dim = traj.dim;
  const bool us = served->signal() == serve::Signal::kNovelty;

  serve::DecisionServiceConfig cfg;
  cfg.shard_count = kShards;
  serve::DecisionService service(served, cfg);
  std::vector<serve::DecisionService::SessionId> session(n);
  std::vector<core::SafetyCore> safety(n, core::SafetyCore(served->safety()));
  std::vector<core::NoveltyFeatureExtractor> extractor(
      n, core::NoveltyFeatureExtractor(us_model->NoveltyConfig()));
  const core::NoveltyDetector::Probe& probe = us_model->NoveltyProbe();
  const std::size_t fdim = 2 * us_model->NoveltyConfig().k;
  for (std::size_t s = 0; s < n; ++s) session[s] = service.OpenSession();

  LayerResult r;
  double t_decode = 0, t_encode = 0, t_extract = 0, t_svm = 0, t_unc = 0,
         t_greedy = 0, t_observe = 0, t_fallback = 0;
  std::uint64_t frames = 0, pushes = 0, rows = 0, unc_rows = 0,
                greedy_rows = 0, observes = 0, fallbacks = 0, decisions = 0;

  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < n; ++s) {
    if (cur[s].remaining > 0) active.push_back(s);
  }
  std::vector<std::uint8_t> wire;
  std::vector<std::size_t> frame_at;
  std::vector<osap::mdp::State> state(n, osap::mdp::State(dim));
  std::vector<serve::DecisionService::Request> requests;
  std::vector<osap::mdp::Action> actions, composed, greedy;
  std::vector<double> scores, values;
  std::vector<std::size_t> staged_of, learned_of;
  osap::nn::Matrix packed, features, learned;
  while (!active.empty()) {
    const std::size_t m = active.size();
    // net: encode each STEP frame, then time decoding them back. The
    // append helpers reserve exactly one more frame, so the buffer is
    // sized for the whole round up front (else appending m frames is
    // quadratic).
    wire.clear();
    wire.reserve(m * net::StepFrameBytes(dim));
    frame_at.clear();
    for (std::size_t s : active) {
      if (cur[s].reopen) {
        service.CloseSession(session[s]);
        session[s] = service.OpenSession();
        safety[s].Reset();
        extractor[s].Reset();
        cur[s].reopen = false;
      }
      frame_at.push_back(wire.size());
      net::RequestHeader h;
      h.request_id = s;
      h.session_id = session[s];
      net::AppendRequestFrame(wire, h, {cur[s].stream.State(), dim});
    }
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint8_t* f = wire.data() + frame_at[i];
      net::DecodedRequest req;
      const auto len = net::GetU32(f);
      if (net::DecodeRequest({f + net::kLengthPrefixBytes, len}, req) !=
          net::DecodeResult::kOk) {
        throw std::runtime_error("benchmark frame failed to decode");
      }
      req.CopyState(state[active[i]]);
    }
    t_decode += Seconds(t0, Clock::now());
    frames += m;

    // serve: the service's decisions, the reference for the composition.
    requests.clear();
    for (std::size_t s : active) requests.push_back({session[s], &state[s]});
    actions.resize(m);
    service.DecideBatch(requests, actions);

    // core + svm: novelty features and their OC-SVM values.
    features.ReshapeUninitialized(m, fdim);
    staged_of.clear();
    t0 = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t s = active[i];
      const double obs = probe(state[s]);
      if (obs <= 0.0) continue;
      ++pushes;
      if (extractor[s].Push(obs, features.Row(staged_of.size()))) {
        staged_of.push_back(i);
      }
    }
    t_extract += Seconds(t0, Clock::now());
    scores.assign(m, 0.0);
    const std::size_t svm_rows =
        us ? staged_of.size() : std::min(staged_of.size(), SideLeft(rows));
    if (svm_rows > 0) {
      values.resize(svm_rows);
      t0 = Clock::now();
      us_model->NoveltyDecisionValues(features.data(), svm_rows, values);
      t_svm += Seconds(t0, Clock::now());
      rows += svm_rows;
      for (std::size_t t = 0; t < svm_rows; ++t) {
        scores[staged_of[t]] = values[t] >= 0.0 ? 0.0 : 1.0;
      }
    }
    r.window_share += static_cast<double>(staged_of.size());

    // nn: the ensemble pass (with the deployed actor's actions).
    const std::size_t unc_count = us ? std::min(m, SideLeft(unc_rows)) : m;
    if (unc_count > 0) {
      packed.ReshapeUninitialized(unc_count, dim);
      for (std::size_t i = 0; i < unc_count; ++i) {
        std::copy(state[active[i]].begin(), state[active[i]].end(),
                  packed.Row(i).data());
      }
      std::vector<double> unc(unc_count);
      greedy.resize(unc_count);
      t0 = Clock::now();
      upi_model->UncertaintyScores(packed, unc, greedy);
      t_unc += Seconds(t0, Clock::now());
      unc_rows += unc_count;
      if (!us) scores = unc;
    }

    // core: the defaulting state machine; policies: the fallback.
    composed.resize(m);
    learned_of.clear();
    std::vector<std::uint8_t> fallback(m);
    t0 = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
      fallback[i] = safety[active[i]].Observe(scores[i]) ? 1 : 0;
    }
    t_observe += Seconds(t0, Clock::now());
    observes += m;
    // The fallback mapping is timed on every state (it is a few compares;
    // the service calls it for the defaulted ones only).
    t0 = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
      composed[i] = served->FallbackAction(state[active[i]]);
    }
    t_fallback += Seconds(t0, Clock::now());
    fallbacks += m;
    // nn: the deployed actor's pass over the learned sessions. Under U_pi
    // the ensemble pass already yielded their actions; the actor pass is
    // then timed on the capped sample, and must agree with them.
    for (std::size_t i = 0; i < m; ++i) {
      if (!fallback[i]) {
        learned_of.push_back(i);
        if (!us) composed[i] = greedy[i];
      }
    }
    const std::size_t actor_rows =
        us ? learned_of.size()
           : std::min(learned_of.size(), SideLeft(greedy_rows));
    if (actor_rows > 0) {
      learned.ReshapeUninitialized(actor_rows, dim);
      for (std::size_t t = 0; t < actor_rows; ++t) {
        const auto& st = state[active[learned_of[t]]];
        std::copy(st.begin(), st.end(), learned.Row(t).data());
      }
      std::vector<osap::mdp::Action> la(actor_rows);
      t0 = Clock::now();
      served->GreedyActions(learned, la);
      t_greedy += Seconds(t0, Clock::now());
      greedy_rows += actor_rows;
      for (std::size_t t = 0; t < actor_rows; ++t) {
        composed[learned_of[t]] = la[t];
      }
    }

    // net: encode the replies.
    wire.clear();
    wire.reserve(m * (net::kLengthPrefixBytes + net::kReplyBytes));
    t0 = Clock::now();
    for (std::size_t i = 0; i < m; ++i) {
      net::Reply reply;
      reply.action = actions[i];
      reply.request_id = active[i];
      reply.session_id = session[active[i]];
      reply.flags = fallback[i] ? net::kFlagDefaulted : 0;
      net::AppendReplyFrame(wire, reply);
    }
    t_encode += Seconds(t0, Clock::now());

    std::size_t kept = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t s = active[i];
      if (composed[i] != actions[i] ||
          (fallback[i] != 0) != service.Defaulted(session[s])) {
        ++r.mismatches;
      }
      if (cur[s].stream.Advance()) cur[s].reopen = true;
      if (--cur[s].remaining > 0) active[kept++] = s;
    }
    active.resize(kept);
    decisions += m;
  }
  for (std::size_t s = 0; s < n; ++s) service.CloseSession(session[s]);

  if (rows == 0) {
    // No session lived long enough to fill its novelty window (churn):
    // time the OC-SVM on full-window rows of the recorded trajectories.
    features.ReshapeUninitialized(kSideCap, fdim);
    std::size_t staged = 0;
    for (std::size_t t = 0; t < traj.count() && staged < kSideCap; ++t) {
      core::NoveltyFeatureExtractor x(us_model->NoveltyConfig());
      for (std::size_t k = 0; k < traj.steps && staged < kSideCap; ++k) {
        const double* st = traj.State(t, k);
        const double obs = probe(osap::mdp::State(st, st + dim));
        if (obs > 0.0 && x.Push(obs, features.Row(staged))) ++staged;
      }
    }
    values.resize(staged);
    const auto t0 = Clock::now();
    us_model->NoveltyDecisionValues(features.data(), staged, values);
    t_svm += Seconds(t0, Clock::now());
    rows += staged;
  }

  auto per = [](double t, std::uint64_t c) {
    return c == 0 ? 0.0 : t * 1e9 / static_cast<double>(c);
  };
  r.decode_ns = per(t_decode, frames);
  r.encode_ns = per(t_encode, frames);
  r.extract_ns = per(t_extract, pushes);
  r.window_share = decisions == 0 ? 0.0
                                  : r.window_share /
                                        static_cast<double>(decisions);
  r.svm_ns_per_row = per(t_svm, rows);
  r.uncertainty_ns = per(t_unc, unc_rows);
  r.greedy_ns = per(t_greedy, greedy_rows);
  r.observe_ns = per(t_observe, observes);
  r.fallback_ns = per(t_fallback, fallbacks);
  return r;
}

}  // namespace perfbench
