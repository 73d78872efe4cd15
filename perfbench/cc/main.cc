// perfbench: the wire-decision benchmark's binary.
//
//   perfbench prepare --work DIR
//       Trains the Gamma(2,2) bundle into DIR/osap_cache (once) and records
//       the test-trace trajectories the workloads replay.
//   perfbench run --work DIR --server OSAP_SERVE --workload NAME
//                 --seed N --seconds S --trace 0|1
//       One benchmark run: the wire run against a fresh osap_serve, the
//       in-process replay that must reproduce its decisions, and (trace 1)
//       the traced and per-layer replays. The last stdout line is the
//       result object: end-to-end metrics (trace 0) or per-layer metrics
//       (trace 1).
//
// perfbench/run.py builds this binary and calls it; see README.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"
#include "serve/decision_service.h"
#include "traces/dataset.h"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Cost of one span of the traced service replay, in seconds: the clock
/// reads and bookkeeping each timed call adds, repeated back to back, the
/// median of nine batches.
double SpanSeconds() {
  constexpr int kSpans = 100000;
  std::vector<double> batches, spans;
  spans.reserve(kSpans);
  for (int b = 0; b < 9; ++b) {
    spans.clear();
    const auto start = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      const auto t0 = Clock::now();
      spans.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count() * 1e6);
    }
    batches.push_back(
        std::chrono::duration<double>(Clock::now() - start).count() / kSpans);
  }
  return Median(batches);
}

struct Metric {
  std::string name, unit;
  double value;
};

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::string(argv[i]).rfind("--", 0) != 0) break;
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string Need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    throw std::invalid_argument("missing --" + key);
  }
  return it->second;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const std::map<std::string, std::string>& flags) {
  WireConfig wc;
  wc.work = Need(flags, "work");
  wc.server = Need(flags, "server");
  wc.workload = FindWorkload(Need(flags, "workload"));
  wc.seed = std::stoull(Need(flags, "seed"));
  wc.seconds = std::stod(Need(flags, "seconds"));
  const bool trace = Need(flags, "trace") == "1";
  if (wc.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  const Workload& w = wc.workload;
  const Trajectories traj = Trajectories::Load(TrajectoryFile(wc.work));

  std::printf("perfbench: %s (%s, %s, %zu sessions, %.0f decisions/s), "
              "seed %llu, %.0f s, trace %d\n",
              w.name.c_str(), w.signal.c_str(), w.backend.c_str(), w.sessions,
              w.rate, static_cast<unsigned long long>(wc.seed), wc.seconds,
              trace ? 1 : 0);
  WireResult wire = RunWire(wc, traj);
  // Host interference (steal, a descheduled thread) only ever makes a block
  // slower, so a run reports the quiet end of its blocks' latencies: the
  // lower quartile of their percentiles, and OPEN latency pooled over the
  // quieter half of the blocks (too few OPENs per block for a per-block
  // p95). Capacity, CPU and RSS are per-block medians; capacity counts
  // server CPU time, which host steal moves less than wall time.
  const std::size_t nb = wire.blocks.size();
  std::vector<double> block_p50, block_p95, capacity, cpu_us, rss;
  std::size_t step_samples = 0, open_samples = 0;
  double fixed_decisions = 0.0, fixed_seconds = 0.0;
  for (WireResult::Block& b : wire.blocks) {
    block_p50.push_back(Quantile(b.step_us, 0.50));
    block_p95.push_back(Quantile(b.step_us, 0.95));
    capacity.push_back(b.capacity);
    cpu_us.push_back(b.decisions == 0.0 ? 0.0 : b.cpu_s * 1e6 / b.decisions);
    rss.push_back(b.rss_mib);
    step_samples += b.step_us.size();
    fixed_decisions += b.decisions;
    fixed_seconds += b.seconds;
  }
  std::vector<std::size_t> by_p95(nb);
  for (std::size_t b = 0; b < nb; ++b) by_p95[b] = b;
  std::sort(by_p95.begin(), by_p95.end(), [&](std::size_t a, std::size_t b) {
    return block_p95[a] < block_p95[b];
  });
  std::vector<double> open_lat;
  for (std::size_t i = 0; i < (nb + 1) / 2; ++i) {
    const auto& o = wire.blocks[by_p95[i]].open_us;
    open_lat.insert(open_lat.end(), o.begin(), o.end());
  }
  for (const WireResult::Block& b : wire.blocks) {
    open_samples += b.open_us.size();
  }
  const double open_p95 = Quantile(open_lat, 0.95);
  std::vector<double> p50s = block_p50, p95s = block_p95;
  const double p50 = Quantile(p50s, 0.25);
  const double p95 = Quantile(p95s, 0.25);
  std::vector<double> late = wire.late_us;
  const ServerReport& srv = wire.server;

  std::printf("setup: %zu starts, exec to first STEP reply:",
              wire.setup_samples_s.size());
  for (double s : wire.setup_samples_s) std::printf(" %.4f", s);
  std::printf(" s\n");
  std::printf("wire: sent %llu, ok %llu, busy %llu, error %llu, missing "
              "%llu, dropped ticks %llu\n",
              static_cast<unsigned long long>(wire.sent),
              static_cast<unsigned long long>(wire.ok),
              static_cast<unsigned long long>(wire.busy),
              static_cast<unsigned long long>(wire.error),
              static_cast<unsigned long long>(wire.missing),
              static_cast<unsigned long long>(wire.overruns));
  std::printf("fixed-rate: %.0f decisions in %.2f s (%.0f/s) over %zu "
              "blocks, %zu STEP and %zu OPEN latency samples (%zu OPENs in "
              "the quieter half)\n",
              fixed_decisions, fixed_seconds, fixed_decisions / fixed_seconds,
              nb, step_samples, open_samples, open_lat.size());
  std::printf("blocks, STEP p50/p95 us:");
  for (std::size_t b = 0; b < nb; ++b) {
    std::printf(" %.1f/%.1f", block_p50[b], block_p95[b]);
  }
  std::printf("\nblocks, closed-loop decisions per wall s:");
  for (const WireResult::Block& b : wire.blocks) {
    std::printf(" %.0f", b.closed_rate);
  }
  std::printf("\nblocks, closed-loop decisions per server CPU s:");
  for (double c : capacity) std::printf(" %.0f", c);
  std::printf("\nblocks, server CPU us/decision:");
  for (double c : cpu_us) std::printf(" %.2f", c);
  std::printf("\nblocks, server RSS MiB:");
  for (double r : rss) std::printf(" %.2f", r);
  std::printf("\nserver: %s backend, %llu decided, %llu busy, %llu epochs, "
              "%llu syscalls, %ld involuntary context switches\n",
              srv.backend.c_str(), static_cast<unsigned long long>(srv.decided),
              static_cast<unsigned long long>(srv.busy),
              static_cast<unsigned long long>(srv.epochs),
              static_cast<unsigned long long>(srv.syscalls),
              srv.involuntary_cs);
  const double late_p95 = Quantile(late, 0.95);
  const double ivcs_per_k =
      srv.decided == 0 ? 0.0
                       : 1000.0 * static_cast<double>(srv.involuntary_cs) /
                             static_cast<double>(srv.decided);
  std::printf("interference: steal_share %.5f, generator late p95 %.2f us, "
              "server involuntary cs per 1k decisions %.3f\n",
              wire.steal_share, late_p95, ivcs_per_k);
  std::fflush(stdout);

  // In-process replay of exactly the stream the wire run consumed.
  const std::uint64_t wire_digest = CombineDigests(wire.digests, wire.steps);
  const auto t0 = Clock::now();
  auto bench = OpenWorkbench(wc.work);
  bench->BundleFor(osap::traces::DatasetId::kGamma22);
  const auto t1 = Clock::now();
  const auto model = BuildModel(*bench, w.signal);
  {
    osap::serve::DecisionServiceConfig cfg;
    cfg.shard_count = kShards;
    osap::serve::DecisionService service(model, cfg);
  }
  const auto t2 = Clock::now();
  // Trace runs replay in DecideBatch calls of the server's mean epoch size,
  // so the in-process spans see the batches the wire run saw.
  const std::size_t batch =
      !trace || srv.epochs == 0
          ? 0
          : std::max<std::size_t>(1, (srv.decided + srv.epochs / 2) /
                                         srv.epochs);
  const ReplayResult plain =
      ReplayService(model, w, traj, wc.seed, wire.steps, batch, false);
  const bool digest_ok = plain.digest == wire_digest;
  std::printf("digest: wire %016llx, in-process replay %016llx over %llu "
              "decisions: %s\n",
              static_cast<unsigned long long>(wire_digest),
              static_cast<unsigned long long>(plain.digest),
              static_cast<unsigned long long>(plain.decisions),
              digest_ok ? "match" : "MISMATCH");
  std::printf("defaulted share by dataset:");
  std::uint64_t all = 0, all_defaulted = 0;
  for (std::size_t d = 0; d < kDatasets; ++d) {
    all += plain.per_dataset[d];
    all_defaulted += plain.defaulted[d];
    std::printf(" %s %.3f", DatasetName(d).c_str(),
                plain.per_dataset[d] == 0
                    ? 0.0
                    : static_cast<double>(plain.defaulted[d]) /
                          static_cast<double>(plain.per_dataset[d]));
  }
  std::printf("\n");
  if (!digest_ok) wire.failures.push_back("decision digest mismatch");

  // Every end-to-end metric is printed. Only those that repeat across runs
  // on this host enter the result object; the wire latencies followed the
  // host's steal and closed-loop capacity its CPU speed (README.md, "Which
  // metrics are gated").
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", Median(wire.setup_samples_s)},
      {"decision_p50_us", "us", p50},
      {"decision_p95_us", "us", p95},
      {"open_p95_us", "us", open_p95},
      {"capacity_dps", "1/s", Median(capacity)},
      {"cpu_us_per_decision", "us", Median(cpu_us)},
      {"server_rss_mib", "MiB", Median(rss)},
  };
  std::printf("end-to-end:");
  for (const Metric& m : end_to_end) {
    std::printf(" %s=%.6g %s;", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("\n");
  std::vector<Metric> metrics;
  if (!trace) {
    for (const Metric& m : end_to_end) {
      if (m.name == "setup_s" || m.name == "cpu_us_per_decision" ||
          m.name == "server_rss_mib") {
        metrics.push_back(m);
      }
    }
  } else {
    const ReplayResult traced =
        ReplayService(model, w, traj, wc.seed, wire.steps, batch, true);
    if (traced.digest != wire_digest) {
      wire.failures.push_back("traced replay digest mismatch");
    }
    // Tracing overhead: what the traced replay's spans cost, as a share of
    // the untraced replay of the same stream. Comparing the two passes'
    // wall times would measure run-to-run noise, which is far larger.
    const double spans = static_cast<double>(
        traced.decide_us.size() + traced.opens + traced.closes);
    const double span_s = SpanSeconds();
    const double overhead = spans * span_s / plain.wall_s;
    std::printf("tracing: %.0f spans at %.1f ns each, %.6f of the untraced "
                "replay's %.3f s\n",
                spans, span_s * 1e9, overhead, plain.wall_s);
    const auto us_model = w.signal == "us" ? model : BuildModel(*bench, "us");
    const auto upi_model =
        w.signal == "upi" ? model : BuildModel(*bench, "upi");
    const LayerResult layers = ReplayLayers(model, us_model, upi_model, w,
                                            traj, wc.seed, wire.steps);
    std::printf("layer replay: %llu composed decisions differ from the "
                "service's\n",
                static_cast<unsigned long long>(layers.mismatches));
    if (layers.mismatches != 0) {
      wire.failures.push_back("layer-composed decisions differ");
    }
    const double decisions = static_cast<double>(traced.decisions);
    const double decide_us = traced.decide_s * 1e6 / decisions;
    std::vector<double> calls = traced.decide_us;
    auto share = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    metrics = {
        {"net.decode_ns_per_frame", "ns", layers.decode_ns},
        {"net.encode_ns_per_reply", "ns", layers.encode_ns},
        {"net.syscalls_per_decision", "count",
         share(srv.syscalls, srv.decided)},
        {"net.decisions_per_epoch", "count", share(srv.decided, srv.epochs)},
        {"net.busy_share", "share", share(srv.busy, srv.decided + srv.busy)},
        {"net.wire_residual_p50_us", "us", p50 - decide_us},
        {"serve.decide_batch_us_per_decision", "us", decide_us},
        {"serve.decide_batch_p50_us", "us", Median(calls)},
        {"serve.open_ns", "ns", traced.open_s * 1e9 / static_cast<double>(
                                    std::max<std::uint64_t>(1, traced.opens))},
        {"serve.close_ns", "ns",
         traced.close_s * 1e9 /
             static_cast<double>(std::max<std::uint64_t>(1, traced.closes))},
        {"serve.bytes_per_session", "B", traced.bytes_per_session},
        {"core.nd_extract_ns_per_push", "ns", layers.extract_ns},
        {"core.nd_window_share", "share", layers.window_share},
        {"svm.decision_values_ns_per_row", "ns", layers.svm_ns_per_row},
        {"nn.uncertainty_scores_ns_per_state", "ns", layers.uncertainty_ns},
        {"nn.greedy_actions_ns_per_state", "ns", layers.greedy_ns},
        {"core.safety_observe_ns", "ns", layers.observe_ns},
        {"policies.fallback_ns", "ns", layers.fallback_ns},
        {"core.defaulted_share", "share", share(all_defaulted, all)},
    };
    for (std::size_t d = 0; d < kDatasets; ++d) {
      metrics.push_back({"core.defaulted_share." + DatasetName(d), "share",
                         share(plain.defaulted[d], plain.per_dataset[d])});
    }
    const std::vector<Metric> tail = {
        {"core.bundle_load_ms", "ms", Ms(t0, t1)},
        {"serve.construct_ms", "ms", Ms(t1, t2)},
        {"loadgen.late_p95_us", "us", late_p95},
        {"os.steal_share", "share", wire.steal_share},
        {"os.server_involuntary_cs_per_kdecision", "count", ivcs_per_k},
        {"trace.overhead_share", "share", overhead},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());
  }
  for (const std::string& f : wire.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  const bool correct = wire.failures.empty();
  PrintResult(correct, wire.sent, wire.error + wire.missing, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: perfbench prepare|run");
    const std::string cmd = argv[1];
    const auto flags = ParseFlags(argc, argv);
    if (cmd == "prepare") {
      Prepare(Need(flags, "work"));
      return 0;
    }
    if (cmd == "run") return Run(flags);
    throw std::invalid_argument("unknown command " + cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
