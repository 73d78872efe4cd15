// NetServer loopback tests: the acceptance criteria of the network edge.
//
// The load-bearing property is end-to-end bit-identity: a session driven
// over the wire (state doubles encoded as IEEE-754 bit patterns, decisions
// computed by the server's micro-batched DecisionService, replies read
// back over TCP) must pick exactly the action sequence the in-process
// DecisionService picks for the same trace. Batching composition is
// already pinned by the serve equivalence tests, so any divergence here
// is a wire bug (lossy encoding, reply misrouting, state corruption).
//
// The admission tests pin the other acceptance criterion: a flooding
// client gets BUSY, lane depth stays at or below the high-water mark (the
// service's rings are bounded to it, so a violation aborts the server
// loop and the test), and every request gets exactly one reply - nothing
// is silently dropped.
#include "net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "abr/abr_environment.h"
#include "net/client.h"
#include "net_test_world.h"
#include "serve/decision_service.h"

namespace osap::net {
namespace {

using testing::NetModelFor;
using testing::NetWorld;
using testing::ServerRunner;
using testing::SharedNetWorld;

/// Every loopback property runs under both IO backends: the epoll
/// reference arm and the io_uring arm must produce the same wire bytes
/// and the same decision stream. The uring arm skips (visibly) where
/// the kernel denies io_uring.
class NetServerLoopback : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kUring && !UringBackendAvailable()) {
      GTEST_SKIP() << "io_uring denied by this kernel ("
                   << UringUnavailableReason()
                   << "); uring backend arm skipped";
    }
  }

  /// Config preloaded with the arm under test.
  NetServerConfig Cfg() const {
    NetServerConfig cfg;
    cfg.backend = GetParam();
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, NetServerLoopback,
    ::testing::Values(BackendKind::kEpoll, BackendKind::kUring),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendKindName(info.param));
    });

struct SessionRun {
  std::vector<mdp::Action> actions;
  std::vector<char> defaulted;  // per-step defaulted flag
};

/// Reference arm: each trace runs alone through an in-process
/// single-shard DecisionService (serial by construction), start to
/// finish.
std::vector<SessionRun> RunInProcess(
    const NetWorld& w, std::shared_ptr<const serve::ServingModel> model) {
  serve::DecisionService service(model);
  std::vector<SessionRun> runs;
  for (const traces::Trace& trace : w.traces) {
    SessionRun run;
    const auto id = service.OpenSession();
    abr::AbrEnvironment env(w.video, {});
    env.SetFixedTrace(trace);
    mdp::State state = env.Reset();
    bool done = false;
    while (!done) {
      const mdp::Action action = service.Decide(id, state);
      run.actions.push_back(action);
      run.defaulted.push_back(service.Defaulted(id));
      mdp::StepResult result = env.Step(action);
      state = std::move(result.next_state);
      done = result.done;
    }
    service.CloseSession(id);
    runs.push_back(std::move(run));
  }
  return runs;
}

/// Wire arm: all traces run CONCURRENTLY over one pipelined connection,
/// so every decision round micro-batches across sessions - the
/// composition an edge in production sees.
std::vector<SessionRun> RunOverWire(const NetWorld& w, std::uint16_t port) {
  Client client;
  client.Connect("127.0.0.1", port);

  const std::size_t n = w.traces.size();
  std::vector<SessionRun> runs(n);
  std::vector<std::uint64_t> session(n);
  std::vector<abr::AbrEnvironment> envs;
  std::vector<mdp::State> states(n);
  std::vector<bool> done(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    envs.emplace_back(w.video, abr::AbrEnvironmentConfig{});
    envs[i].SetFixedTrace(w.traces[i]);
    states[i] = envs[i].Reset();
    session[i] = client.OpenSession();
  }

  std::size_t live = n;
  // High base so explicit ids never collide with the ids the Client's
  // convenience calls (OpenSession / CloseSession) pick internally.
  std::uint64_t next_request = 1 << 20;
  while (live > 0) {
    // One pipelined round: a STEP for every live session, one flush.
    std::map<std::uint64_t, std::size_t> viewer_of;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      const std::uint64_t rid = next_request++;
      viewer_of[rid] = i;
      client.SendStep(rid, session[i], states[i]);
    }
    client.Flush();
    std::vector<std::size_t> finished;
    for (std::size_t k = 0; k < viewer_of.size(); ++k) {
      Reply reply;
      if (!client.ReadReply(reply)) throw std::runtime_error("early EOF");
      const auto it = viewer_of.find(reply.request_id);
      if (it == viewer_of.end()) throw std::runtime_error("unknown id");
      const std::size_t i = it->second;
      EXPECT_EQ(reply.status, Status::kOk);
      EXPECT_EQ(reply.session_id, session[i]);
      runs[i].actions.push_back(reply.action);
      runs[i].defaulted.push_back(reply.Defaulted());
      mdp::StepResult result = envs[i].Step(reply.action);
      states[i] = std::move(result.next_state);
      if (result.done) {
        done[i] = true;
        --live;
        finished.push_back(i);
      }
    }
    // Close only once the burst is fully drained: CloseSession is its own
    // round trip and must not race the burst's outstanding replies.
    for (std::size_t i : finished) client.CloseSession(session[i]);
  }
  client.Close();
  return runs;
}

TEST_P(NetServerLoopback, DecisionsAreBitIdenticalToInProcessService) {
  const NetWorld& w = SharedNetWorld();
  for (serve::Signal signal :
       {serve::Signal::kNovelty, serve::Signal::kAgentEnsemble}) {
    const auto model =
        NetModelFor(w, signal, core::DefaultingMode::kPermanent);
    const std::vector<SessionRun> reference = RunInProcess(w, model);
    std::size_t defaulted_steps = 0, learned_steps = 0;
    for (const SessionRun& run : reference) {
      for (char d : run.defaulted) (d ? defaulted_steps : learned_steps)++;
    }
    // The comparison only means something if both decision paths ran:
    // some steps defaulted to the fallback, some used the learned actor.
    EXPECT_GT(defaulted_steps, 0u);
    EXPECT_GT(learned_steps, 0u);

    // One edge and four edges, two lanes per edge so every edge's second
    // lane runs on its shard worker (the connection lands on whichever
    // edge the kernel's hash picks; its sessions stay on that edge).
    for (const std::size_t edges : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("edge_threads " + std::to_string(edges));
      NetServerConfig cfg = Cfg();
      cfg.edge_threads = edges;
      cfg.service.shard_count = 2 * edges;
      ServerRunner server(model, cfg);
      const std::vector<SessionRun> wire = RunOverWire(w, server.Port());

      ASSERT_EQ(wire.size(), reference.size());
      for (std::size_t i = 0; i < wire.size(); ++i) {
        EXPECT_EQ(wire[i].actions, reference[i].actions)
            << "session " << i << " diverged over the wire";
        EXPECT_EQ(wire[i].defaulted, reference[i].defaulted)
            << "session " << i << " defaulted flags diverged";
      }
    }
  }
}

TEST_P(NetServerLoopback, ReplyEpochsAreMonotonic) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kAgentEnsemble,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg = Cfg();
  ServerRunner server(model, cfg);
  Client client;
  client.Connect("127.0.0.1", server.Port());
  const auto session = client.OpenSession();
  abr::AbrEnvironment env(w.video, {});
  env.SetFixedTrace(w.traces[0]);
  mdp::State state = env.Reset();
  std::uint64_t last_epoch = 0;
  for (int i = 0; i < 20; ++i) {
    const Reply reply = client.Step(session, state);
    ASSERT_EQ(reply.status, Status::kOk);
    EXPECT_GT(reply.epoch, last_epoch)
        << "every one-at-a-time STEP runs its own decision round";
    last_epoch = reply.epoch;
    state = env.Step(reply.action).next_state;
  }
  client.CloseSession(session);
}

// Acceptance criterion: with the in-flight cap set low, a flooding client
// gets BUSY replies, lane depth stays <= the high-water mark, and no
// request is silently dropped (replies exactly match requests sent).
TEST_P(NetServerLoopback, FloodPastInFlightCapGetsBusyNotDropped) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kAgentEnsemble,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg = Cfg();
  cfg.max_in_flight = 4;
  cfg.lane_high_water = 4;  // rings bounded to 4: deeper = loud abort
  cfg.pause_reads_above = 0;  // keep reading so BUSY is immediate
  cfg.service.shard_count = 1;
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  // Flood across several sessions: one session would serialize to one
  // admitted STEP per round (the per-round dedup) without touching the
  // cap. Eight sessions x 8 steps = 64 requests against a cap of 4.
  constexpr std::size_t kFloodSessions = 8;
  constexpr std::size_t kStepsEach = 8;
  std::vector<std::uint64_t> sessions;
  for (std::size_t i = 0; i < kFloodSessions; ++i) {
    sessions.push_back(client.OpenSession());
  }
  abr::AbrEnvironment env(w.video, {});
  env.SetFixedTrace(w.traces[0]);
  const mdp::State state = env.Reset();

  std::uint64_t rid = 0;
  for (std::size_t step = 0; step < kStepsEach; ++step) {
    for (std::uint64_t session : sessions) {
      client.SendStep(++rid, session, state);
    }
  }
  client.Flush();

  std::size_t ok = 0, busy = 0;
  for (std::uint64_t k = 0; k < rid; ++k) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply)) << "reply " << k << " missing";
    ASSERT_TRUE(reply.status == Status::kOk || reply.status == Status::kBusy)
        << "unexpected status " << static_cast<int>(reply.status);
    ok += reply.status == Status::kOk;
    busy += reply.status == Status::kBusy;
  }
  // Every request answered exactly once; the flood actually tripped the
  // cap, and some requests were still served.
  EXPECT_EQ(ok + busy, rid);
  EXPECT_GT(busy, 0u) << "64 pipelined steps against a cap of 4 must BUSY";
  EXPECT_GT(ok, 0u);

  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.decided, ok);
  EXPECT_EQ(stats.busy, busy);
  EXPECT_EQ(stats.in_flight, 0u);  // all drained by now
  for (std::uint64_t session : sessions) client.CloseSession(session);
}

// The per-lane high-water mark rejects independently of the global cap:
// sessions hash to shard id % 2, so flooding only even sessions fills one
// lane while the global cap stays distant.
TEST_P(NetServerLoopback, LaneHighWaterMarkRejectsPerShard) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kAgentEnsemble,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg = Cfg();
  cfg.max_in_flight = 1000;  // global cap out of the way
  cfg.lane_high_water = 2;
  cfg.pause_reads_above = 0;
  cfg.service.shard_count = 2;
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  std::vector<std::uint64_t> sessions;
  for (std::size_t i = 0; i < 6; ++i) sessions.push_back(client.OpenSession());
  abr::AbrEnvironment env(w.video, {});
  env.SetFixedTrace(w.traces[0]);
  const mdp::State state = env.Reset();

  // One pipelined STEP per session, all in one TCP burst. Sessions split
  // 3/3 over the two lanes; with a mark of 2, exactly one per lane BUSYs
  // if the burst is parsed in one go (a split read can admit more as
  // earlier rounds drain, so assert bounds, not exact counts).
  std::uint64_t rid = 0;
  for (std::uint64_t session : sessions) {
    client.SendStep(++rid, session, state);
  }
  client.Flush();
  std::size_t ok = 0, busy = 0;
  for (std::uint64_t k = 0; k < rid; ++k) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply));
    ok += reply.status == Status::kOk;
    busy += reply.status == Status::kBusy;
  }
  EXPECT_EQ(ok + busy, rid) << "every request answered";
  EXPECT_GE(ok, 4u) << "2 lanes x mark 2 admit at least 4";
  for (std::uint64_t session : sessions) client.CloseSession(session);
}

TEST_P(NetServerLoopback, OpenPastMaxSessionsGetsFull) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kNovelty,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg = Cfg();
  cfg.max_sessions = 3;
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  std::vector<std::uint64_t> sessions;
  for (std::size_t i = 0; i < 3; ++i) sessions.push_back(client.OpenSession());
  EXPECT_THROW(client.OpenSession(), std::runtime_error);  // kFull

  // Closing one frees a slot; the gate is on live sessions, not a
  // lifetime count.
  client.CloseSession(sessions.back());
  sessions.back() = client.OpenSession();

  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.open_sessions, 3u);
  EXPECT_EQ(stats.rejected_opens, 1u);
  for (std::uint64_t session : sessions) client.CloseSession(session);
}

TEST_P(NetServerLoopback, BogusRequestsGetErrorRepliesNotSilence) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kNovelty,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg = Cfg();
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  const auto session = client.OpenSession();

  // STEP on a session that was never opened.
  std::vector<double> state(model->InputSize(), 0.5);
  client.SendStep(1, session + 999, state);
  // STEP with the wrong state width.
  std::vector<double> narrow(model->InputSize() - 1, 0.5);
  client.SendStep(2, session, narrow);
  // CLOSE of an unknown session.
  client.SendClose(3, session + 999);
  client.Flush();
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply));
    EXPECT_EQ(reply.request_id, rid);
    EXPECT_EQ(reply.status, Status::kError);
  }
  // The connection survives protocol-level errors (only framing
  // violations tear it down): the real session still works.
  const Reply reply = client.Step(session, state);
  EXPECT_EQ(reply.status, Status::kOk);
  client.CloseSession(session);
}

// A CLOSE that overtakes pipelined STEPs of the same session: every
// STEP still gets a reply (kOk if it made a decision round before the
// CLOSE was parsed, kError if the CLOSE failed it) - never silence - and
// a STEP after the CLOSE is kError.
TEST_P(NetServerLoopback, CloseOvertakingPipelinedStepsAnswersEverything) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kNovelty,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg = Cfg();
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  const auto session = client.OpenSession();
  std::vector<double> state(model->InputSize(), 0.25);

  client.SendStep(1, session, state);
  client.SendStep(2, session, state);
  client.SendStep(3, session, state);
  client.SendClose(4, session);
  client.SendStep(5, session, state);
  client.Flush();

  std::size_t answered = 0;
  for (std::size_t k = 0; k < 5; ++k) {
    Reply reply;
    ASSERT_TRUE(client.ReadReply(reply));
    ++answered;
    switch (reply.request_id) {
      case 1:
      case 2:
      case 3:
        EXPECT_TRUE(reply.status == Status::kOk ||
                    reply.status == Status::kError);
        break;
      case 4:
        EXPECT_EQ(reply.status, Status::kOk) << "the CLOSE itself";
        break;
      case 5:
        EXPECT_EQ(reply.status, Status::kError) << "STEP after CLOSE";
        break;
      default:
        FAIL() << "unknown request id " << reply.request_id;
    }
  }
  EXPECT_EQ(answered, 5u);
}

TEST_P(NetServerLoopback, StatsReflectServiceState) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kNovelty,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg = Cfg();
  ServerRunner server(model, cfg);

  Client client;
  client.Connect("127.0.0.1", server.Port());
  const ServerStats empty = client.Stats();
  EXPECT_EQ(empty.open_sessions, 0u);
  EXPECT_EQ(empty.decided, 0u);
  EXPECT_EQ(empty.connections, 1u);

  const auto a = client.OpenSession();
  const auto b = client.OpenSession();
  std::vector<double> state(model->InputSize(), 0.1);
  ASSERT_EQ(client.Step(a, state).status, Status::kOk);
  ASSERT_EQ(client.Step(b, state).status, Status::kOk);

  const ServerStats stats = client.Stats();
  EXPECT_EQ(stats.open_sessions, 2u);
  EXPECT_GT(stats.session_bytes, 0u);
  EXPECT_EQ(stats.decided, 2u);
  EXPECT_EQ(stats.epochs, 2u);
  EXPECT_EQ(stats.busy, 0u);
  client.CloseSession(a);
  client.CloseSession(b);
  const ServerStats after = client.Stats();
  EXPECT_EQ(after.open_sessions, 0u);
}

// Satellite regression for the send-path signal audit: a peer that
// RSTs (SO_LINGER abort) with replies still queued must cost the server
// at most that one connection - never a SIGPIPE (the flush path uses
// sendmsg + MSG_NOSIGNAL / in-kernel sends) and never a wedged loop.
TEST_P(NetServerLoopback, PeerResetMidReplyDoesNotKillServer) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kNovelty,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg = Cfg();
  ServerRunner server(model, cfg);

  std::vector<double> state(model->InputSize(), 0.4);
  for (int round = 0; round < 3; ++round) {
    Client rude;
    rude.Connect("127.0.0.1", server.Port());
    const auto session = rude.OpenSession();
    // Pipeline a burst the server will be answering when the reset
    // lands, then abort: SO_LINGER{on, 0} turns close() into RST, so
    // the server's queued replies hit a dead socket mid-flush.
    for (std::uint64_t rid = 1; rid <= 32; ++rid) {
      rude.SendStep(rid, session, state);
    }
    rude.Flush();
    struct linger hard {};
    hard.l_onoff = 1;
    hard.l_linger = 0;
    ASSERT_EQ(::setsockopt(rude.fd(), SOL_SOCKET, SO_LINGER, &hard,
                           sizeof hard),
              0);
    rude.Close();
  }

  // The server is still alive and consistent: a polite client gets
  // decisions, and the aborted connections' sessions were reaped.
  Client polite;
  polite.Connect("127.0.0.1", server.Port());
  const auto session = polite.OpenSession();
  const Reply reply = polite.Step(session, state);
  EXPECT_EQ(reply.status, Status::kOk);
  const ServerStats stats = polite.Stats();
  EXPECT_EQ(stats.open_sessions, 1u);
  EXPECT_EQ(stats.connections, 1u);
  polite.CloseSession(session);
}

// A peer that pipelines its last frames and shuts its sending side at
// once must still get every reply before the server closes: the EOF
// often lands in the same readiness event (or recv) as the frames, and
// must be read - not missed, and not taken as "drop what was sent".
TEST_P(NetServerLoopback, HalfClosedPeerGetsItsRepliesThenTheServerCloses) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kNovelty,
                                 core::DefaultingMode::kPermanent);
  ServerRunner server(model, Cfg());
  std::vector<double> state(model->InputSize(), 0.4);
  for (int round = 0; round < 5; ++round) {
    Client client;
    client.Connect("127.0.0.1", server.Port());
    const auto session = client.OpenSession();
    constexpr std::uint64_t kSteps = 4;  // duplicates defer a round each
    for (std::uint64_t rid = 1; rid <= kSteps; ++rid) {
      client.SendStep(rid, session, state);
    }
    client.Flush();
    ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
    std::set<std::uint64_t> answered;
    for (std::uint64_t k = 0; k < kSteps; ++k) {
      Reply reply;
      ASSERT_TRUE(client.ReadReply(reply)) << "round " << round;
      EXPECT_EQ(reply.status, Status::kOk);
      answered.insert(reply.request_id);
    }
    EXPECT_EQ(answered.size(), kSteps);
    Reply extra;
    EXPECT_FALSE(client.ReadReply(extra))
        << "the server closes once the last reply is out";
  }
  // Every finished connection (and its session) is reaped.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.server().Stats().connections != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const ServerStats stats = server.server().Stats();
  EXPECT_EQ(stats.connections, 0u);
  EXPECT_EQ(stats.open_sessions, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// The epoll arm stops reading at a short recv instead of paying one more
// for EAGAIN: a lone STEP round trip costs epoll_wait + recv + sendmsg.
TEST(NetServerEpoll, LoneStepRoundTripCostsThreeIoSyscalls) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kNovelty,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  cfg.backend = BackendKind::kEpoll;
  ServerRunner server(model, cfg);
  Client client;
  client.Connect("127.0.0.1", server.Port());
  const auto session = client.OpenSession();
  std::vector<double> state(model->InputSize(), 0.4);
  // The edge counts a syscall after it returns, so read the counter only
  // once it has stopped moving (the loop is parked in epoll_wait).
  const auto settled = [&] {
    std::uint64_t last = server.server().IoSyscalls();
    for (int still = 0; still < 3;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::uint64_t now = server.server().IoSyscalls();
      still = now == last ? still + 1 : 0;
      last = now;
    }
    return last;
  };
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t before = settled();
    EXPECT_EQ(client.Step(session, state).status, Status::kOk);
    EXPECT_EQ(settled() - before, 3u) << "round " << round;
  }
  client.CloseSession(session);
}

// Requesting the uring arm never fails the server: where the kernel
// denies io_uring it comes up on epoll and says which arm actually runs.
TEST(NetServerBackend, UringRequestFallsBackWhenUnavailable) {
  const NetWorld& w = SharedNetWorld();
  const auto model = NetModelFor(w, serve::Signal::kNovelty,
                                 core::DefaultingMode::kPermanent);
  NetServerConfig cfg;
  cfg.backend = BackendKind::kUring;
  ServerRunner server(model, cfg);
  const BackendKind expected = UringBackendAvailable()
                                   ? BackendKind::kUring
                                   : BackendKind::kEpoll;
  EXPECT_EQ(server.server().backend_kind(), expected);
  Client client;
  client.Connect("127.0.0.1", server.Port());
  const auto session = client.OpenSession();
  std::vector<double> state(model->InputSize(), 0.3);
  EXPECT_EQ(client.Step(session, state).status, Status::kOk);
  client.CloseSession(session);
}

TEST(NetServerBackend, ParseBackendKindRoundTrips) {
  BackendKind kind = BackendKind::kEpoll;
  EXPECT_TRUE(ParseBackendKind("uring", kind));
  EXPECT_EQ(kind, BackendKind::kUring);
  EXPECT_TRUE(ParseBackendKind("epoll", kind));
  EXPECT_EQ(kind, BackendKind::kEpoll);
  EXPECT_FALSE(ParseBackendKind("kqueue", kind));
  EXPECT_EQ(kind, BackendKind::kEpoll) << "junk leaves the value alone";
  EXPECT_STREQ(BackendKindName(BackendKind::kEpoll), "epoll");
  EXPECT_STREQ(BackendKindName(BackendKind::kUring), "uring");
}

}  // namespace
}  // namespace osap::net
