// agnn_perfbench: the repository benchmark's load generator. One process,
// one thread. perfbench/run.py builds it and passes each workload's fixed
// parameters (perfbench/workloads.json) as flags; see perfbench/README.md
// for the workloads, the metrics and what each per-layer metric should move.
//
// With --trace=0 it prints the end-to-end metrics; with --trace=1 it repeats
// the untraced run for the layer counters and then attaches the library's
// TraceRecorder in separate traced passes for per-layer self time. The last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness check makes the exit code 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>

#include "agnn/common/flags.h"
#include "agnn/common/logging.h"
#include "bench.h"
#include "summary.h"

namespace agnn::perfbench {
namespace {

enum class MainPhase { kServe, kIngest, kTrain };

// Parameters every workload shares (README "Workloads"); the traffic and
// ingest shapes and the world seed are in bench.h. Rates, sizes, precision
// and cache rows differ per workload and come as flags from workloads.json.

/// Serve and train workloads interleave ingest episodes with their serving
/// rounds at this share of the wall time (the ingest workload runs episodes
/// for all of --seconds).
constexpr double kSideIngestShare = 0.2;
/// train main phase: epochs per 10 s of --seconds (at least one), and the
/// serving rounds' share of --seconds after training.
constexpr double kTrainEpochsPer10s = 2.0;
constexpr double kTrainServeShare = 0.5;

struct Params {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  MainPhase main = MainPhase::kServe;
  SetupSpec setup;
  size_t setup_reps = 3;
  double qps = 50000.0;  ///< serving rounds' open-loop rate
  IngestSpec ingest;
};

// Every flag the program accepts; a misspelled one is an error rather than
// a silently ignored default.
const std::set<std::string>& KnownFlags() {
  static const std::set<std::string> known = {
      "workload", "seed", "seconds", "trace", "workdir", "main",
      "streamed", "scale", "chunk_size", "warm_users", "warm_items",
      "precision", "cache_rows", "setup_reps", "qps",
      "ingest_qps", "ingest_predicts", "ingest_rate", "ingest_arrivals"};
  return known;
}

size_t GetSize(const FlagParser& flags, const std::string& name,
               size_t default_value) {
  return static_cast<size_t>(std::max(
      0, flags.GetInt(name, static_cast<int>(default_value))));
}

// Flags that are not given keep the defaults of the spec structs.
std::optional<Params> ParseParams(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return std::nullopt;
  }
  for (const auto& [name, value] : flags.values()) {
    if (KnownFlags().count(name) == 0) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return std::nullopt;
    }
  }
  Params p;
  p.workload = flags.GetString("workload", "");
  p.seed = std::strtoull(flags.GetString("seed", "1").c_str(), nullptr, 10);
  p.seconds = flags.GetDouble("seconds", p.seconds);
  p.trace = flags.GetBool("trace", false);
  p.workdir = flags.GetString("workdir", "");
  const std::string main = flags.GetString("main", "");
  if (main == "serve") {
    p.main = MainPhase::kServe;
  } else if (main == "ingest") {
    p.main = MainPhase::kIngest;
  } else if (main == "train") {
    p.main = MainPhase::kTrain;
  } else {
    std::fprintf(stderr, "--main must be serve, ingest or train\n");
    return std::nullopt;
  }
  SetupSpec& setup = p.setup;
  setup.streamed = flags.GetBool("streamed", setup.streamed);
  const std::string scale = flags.GetString("scale", "small");
  setup.scale = scale == "million" ? data::Scale::kMillion
                : scale == "paper" ? data::Scale::kPaper
                                   : data::Scale::kSmall;
  setup.chunk_size = GetSize(flags, "chunk_size", setup.chunk_size);
  setup.warm_users = GetSize(flags, "warm_users", setup.warm_users);
  setup.warm_items = GetSize(flags, "warm_items", setup.warm_items);
  StatusOr<core::ServingPrecision> precision =
      core::ParseServingPrecision(flags.GetString("precision", "f32"));
  if (!precision.ok()) {
    std::fprintf(stderr, "%s\n", precision.status().ToString().c_str());
    return std::nullopt;
  }
  setup.precision = *precision;
  setup.cache_rows = GetSize(flags, "cache_rows", setup.cache_rows);
  p.setup_reps =
      std::max<size_t>(1, GetSize(flags, "setup_reps", p.setup_reps));
  p.qps = flags.GetDouble("qps", p.qps);
  p.ingest.predict_qps = flags.GetDouble("ingest_qps", p.ingest.predict_qps);
  p.ingest.predicts = GetSize(flags, "ingest_predicts", p.ingest.predicts);
  p.ingest.ingest_rate = flags.GetDouble("ingest_rate", p.ingest.ingest_rate);
  p.ingest.arrivals = GetSize(flags, "ingest_arrivals", p.ingest.arrivals);
  if (p.main == MainPhase::kTrain) {
    // A fixed amount of training per --seconds, so cold_rmse is a pure
    // function of (seed, --seconds) on every commit.
    setup.epochs = static_cast<size_t>(
        std::max(1.0, std::round(kTrainEpochsPer10s * p.seconds / 10.0)));
  }
  if (p.workdir.empty() || p.seconds <= 0.0 || p.qps <= 0.0 ||
      p.ingest.predict_qps <= 0.0 || p.ingest.ingest_rate <= 0.0 ||
      p.ingest.predicts % kIngestMaxBatch != 0) {
    std::fprintf(stderr, "bad parameters for workload %s\n",
                 p.workload.c_str());
    return std::nullopt;
  }
  return p;
}

// Quantile that must exist for a reported metric; a sample too small to
// support it is a failed check, reported as 0.
double Required(const std::vector<double>& samples, double q,
                const std::string& name, Tally* tally) {
  const std::optional<double> value = Quantile(samples, q);
  if (!value) {
    tally->Fail(1, name + ": too few samples (" +
                       std::to_string(samples.size()) + ")");
    return 0.0;
  }
  return *value;
}

void SetQuantile(Metrics* out, const std::string& name,
                 const BoundedSample& samples, double q,
                 const std::string& unit, Tally* tally) {
  out->Set(name, Required(samples.values(), q, name, tally), unit);
}

double RequiredMedian(const std::vector<double>& samples,
                      const std::string& name, Tally* tally) {
  const std::optional<double> value = Median(samples);
  if (!value) {
    tally->Fail(1, name + ": no samples");
    return 0.0;
  }
  return *value;
}

// Ratio behind a reported metric; a zero denominator means the phase it
// describes never ran, which is a failed check, reported as 0.
double Ratio(double num, double den, const std::string& name, Tally* tally) {
  if (!(den > 0.0)) {
    tally->Fail(1, name + ": nothing to divide by");
    return 0.0;
  }
  return num / den;
}

// Count, median and the highest supported tail of one distribution, on
// stderr beside the result, so a reader sees what each reported quantile
// rests on.
void PrintDistribution(const std::string& name, const BoundedSample& sample) {
  const SampleSummary s = Summarize(sample.values());
  std::fprintf(stderr, "distribution %-22s n=%llu kept=%zu", name.c_str(),
               static_cast<unsigned long long>(sample.seen()), s.count);
  if (s.median) std::fprintf(stderr, " p50=%.6g", *s.median);
  if (s.tail) std::fprintf(stderr, " p%.4g=%.6g", 100.0 * s.tail_q, *s.tail);
  std::fprintf(stderr, "\n");
}

Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

uint64_t EpisodeSeed(uint64_t seed, size_t episode) {
  return seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL * (episode + 1);
}

// One ingest episode on a fresh ingesting session (the set-up's own for the
// first), so per-episode state never depends on how many episodes a run
// fits in.
void RunEpisode(Setup* setup, const Params& p, size_t episode,
                IngestResult* result, Tally* tally) {
  std::unique_ptr<core::InferenceSession> fresh;
  core::InferenceSession* session = setup->model_session.get();
  if (episode > 0) {
    fresh = NewModelSession(setup, nullptr);
    session = fresh.get();
  }
  RunIngestEpisode(session, *setup, p.ingest, EpisodeSeed(p.seed, episode),
                   result, tally);
}

struct Measured {
  std::vector<double> setup_s;
  std::vector<double> epoch_ratings_per_s;
  std::unique_ptr<Setup> setup;
  ServeResult serve;
  IngestResult ingest;
  double cold_rmse = 0.0;
  double eval_ms = 0.0;
};

// Serving rounds until `deadline`, with small ingest episodes interleaved so
// they take about kSideIngestShare of the wall time. Both then sample the
// same stretch of machine time, whose speed drifts over seconds on a shared
// host. At least kMinSideEpisodes run, for enough time-to-serve samples.
void RunServeWithSideIngest(Setup* setup, const Params& p,
                            Clock::time_point deadline, Measured* m,
                            Tally* tally) {
  constexpr size_t kMinSideEpisodes = 3;
  ServeLoop loop(setup->lazy.get(), *setup, p.qps, p.seed ^ 0xbadc0ffeULL);
  const Clock::time_point start = Clock::now();
  double ingest_s = 0.0;
  size_t episodes = 0;
  do {
    loop.Round(tally);
    if (ingest_s < kSideIngestShare * SecondsSince(start)) {
      const Clock::time_point t0 = Clock::now();
      RunEpisode(setup, p, episodes++, &m->ingest, tally);
      ingest_s += SecondsSince(t0);
    }
  } while (Clock::now() < deadline);
  while (episodes < kMinSideEpisodes) {
    RunEpisode(setup, p, episodes++, &m->ingest, tally);
  }
  m->serve = loop.Finish(tally);
}

// Set-ups, the workload's measured phase, and evaluation — everything the
// untraced run does.
Measured RunUntraced(const Params& p, Tally* tally) {
  Measured m;
  const bool train_in_setup = p.main != MainPhase::kTrain;
  const size_t reps = p.trace ? 1 : p.setup_reps;
  for (size_t r = 0; r < reps; ++r) {
    m.setup.reset();  // one set-up alive at a time
    const Clock::time_point t0 = Clock::now();
    m.setup = BuildSetup(p.setup, p.workdir, train_in_setup);
    m.setup_s.push_back(SecondsSince(t0));
    const std::vector<double>& rates = m.setup->epoch_ratings_per_s;
    m.epoch_ratings_per_s.insert(m.epoch_ratings_per_s.end(), rates.begin(),
                                 rates.end());
  }
  Setup* setup = m.setup.get();
  constexpr size_t kProbes = 256;
  if (train_in_setup) {
    tally->attempted += kProbes;
    tally->Fail(ProbeLazyAgainstModel(setup, p.seed, kProbes),
                "lazy checkpoint session differs from model-backed session");
  }

  const Clock::time_point deadline = After(p.seconds);
  switch (p.main) {
    case MainPhase::kServe:
      RunServeWithSideIngest(setup, p, deadline, &m, tally);
      break;
    case MainPhase::kIngest:
      for (size_t e = 0; e == 0 || Clock::now() < deadline; ++e) {
        RunEpisode(setup, p, e, &m.ingest, tally);
      }
      break;
    case MainPhase::kTrain: {
      TrainTimed(setup);
      m.epoch_ratings_per_s = setup->epoch_ratings_per_s;
      Deploy(setup);
      tally->attempted += kProbes + p.setup.epochs;
      tally->Fail(ProbeLazyAgainstModel(setup, p.seed, kProbes),
                  "lazy checkpoint session differs from model-backed session");
      RunServeWithSideIngest(setup, p, After(kTrainServeShare * p.seconds),
                             &m, tally);
      break;
    }
  }

  const Clock::time_point eval0 = Clock::now();
  m.cold_rmse = setup->trainer->EvaluateTest().rmse;
  m.eval_ms = SecondsSince(eval0) * 1e3;
  tally->attempted += 1;
  if (!std::isfinite(m.cold_rmse)) tally->Fail(1, "cold RMSE is not finite");
  return m;
}

void EndToEnd(const Params& p, Measured* m, Metrics* out, Tally* tally) {
  const bool ingest_main = p.main == MainPhase::kIngest;
  const BoundedSample& single =
      ingest_main ? m->ingest.replay_us : m->serve.single_us;
  const GatewayTimes& gateway = ingest_main ? m->ingest.predict : m->serve.open;
  const double served = ingest_main ? m->ingest.saturated_served
                                    : m->serve.saturated_served;
  const double busy_us = ingest_main ? m->ingest.saturated_busy_us
                                     : m->serve.saturated_busy_us;
  out->Set("setup_s", RequiredMedian(m->setup_s, "setup_s", tally), "s");
  out->Set("peak_rss_mb", PeakRssMb(), "MiB");
  SetQuantile(out, "single_p50_us", single, 0.5, "us", tally);
  out->Set("single_p99_us",
           RequiredMedian(ingest_main ? m->ingest.episode_replay_p99_us
                                      : m->serve.round_single_p99_us,
                          "single_p99_us", tally),
           "us");
  out->Set("throughput_qps",
           Ratio(served, busy_us / 1e6, "throughput_qps", tally), "1/s");
  SetQuantile(out, "gateway_p50_ms", gateway.latency_ms, 0.5, "ms", tally);
  SetQuantile(out, "gateway_p95_ms", gateway.latency_ms, 0.95, "ms", tally);
  SetQuantile(out, "ingest_p50_ms", m->ingest.ingest_ms, 0.5, "ms", tally);
  SetQuantile(out, "ingest_p95_ms", m->ingest.ingest_ms, 0.95, "ms", tally);
  out->Set("train_ratings_per_s",
           RequiredMedian(m->epoch_ratings_per_s, "train_ratings_per_s",
                          tally),
           "1/s");
  out->Set("cold_rmse", m->cold_rmse, "rating");

  PrintDistribution("single_us", single);
  PrintDistribution("gateway_ms", gateway.latency_ms);
  PrintDistribution("gateway_service_us", gateway.service_us);
  PrintDistribution("ingest_ms", m->ingest.ingest_ms);
}

void PerLayer(const Params& p, Measured* m, Metrics* out, Tally* tally) {
  Setup* setup = m->setup.get();
  const bool ingest_main = p.main == MainPhase::kIngest;

  // --- Traced passes, each separate from the timed run above. Serving: the
  // same closed-loop requests on an untraced and a traced lazy session.
  constexpr size_t kWarmup = 2000;
  constexpr size_t kTraced = 5000;
  const uint64_t closed_seed = p.seed ^ 0x7eacedULL;
  auto plain_session = OpenLazy(*setup, nullptr);
  const ClosedLoopResult plain = RunClosedLoop(
      plain_session.get(), *setup, p.qps, closed_seed, kWarmup, kTraced,
      nullptr);
  obs::TraceRecorder serve_trace(1u << 17);
  auto traced_session = OpenLazy(*setup, &serve_trace);
  const ClosedLoopResult traced = RunClosedLoop(
      traced_session.get(), *setup, p.qps, closed_seed, kWarmup, kTraced,
      &serve_trace);
  const SpanTable serve_spans(serve_trace, "serving", tally);
  tally->attempted += 2 * (kWarmup + kTraced);

  // Ingestion: one traced episode on a fresh session.
  IngestSpec traced_ingest = p.ingest;
  traced_ingest.predicts = std::min<size_t>(p.ingest.predicts, 2000);
  traced_ingest.arrivals = std::min<size_t>(p.ingest.arrivals, 200);
  traced_ingest.predicts -= traced_ingest.predicts % kIngestMaxBatch;
  obs::TraceRecorder ingest_trace(1u << 17);
  {
    auto session = NewModelSession(setup, &ingest_trace);
    IngestResult scratch;
    RunIngestEpisode(session.get(), *setup, traced_ingest,
                     EpisodeSeed(p.seed, 1000), &scratch, tally);
  }
  const SpanTable ingest_spans(ingest_trace, "ingest", tally);

  // Training: the first epoch of a fresh trainer on the same split, once
  // untraced and once traced.
  obs::TraceRecorder train_trace(1u << 19);
  double epoch_s[2] = {0.0, 0.0};
  for (obs::TraceRecorder* trace : {static_cast<obs::TraceRecorder*>(nullptr),
                                    &train_trace}) {
    core::AgnnConfig config;
    config.epochs = 1;
    core::AgnnTrainer trainer(setup->dataset, setup->split, config);
    trainer.SetTrace(trace);
    const Clock::time_point t0 = Clock::now();
    trainer.Train();
    epoch_s[trace == nullptr ? 0 : 1] = SecondsSince(t0);
  }
  const SpanTable train_spans(train_trace, "training", tally);

  // --- Gateway (untraced run).
  const GatewayTimes& g = ingest_main ? m->ingest.predict : m->serve.open;
  const double batches = g.batches;
  SetQuantile(out, "gateway.queue_wait_ms.p50", g.queue_wait_ms, 0.5,
              "ms", tally);
  SetQuantile(out, "gateway.queue_wait_ms.p95", g.queue_wait_ms, 0.95,
              "ms", tally);
  SetQuantile(out, "gateway.server_wait_ms.p95", g.server_wait_ms, 0.95,
              "ms", tally);
  const double service_p50 =
      Required(g.service_us.values(), 0.5, "service p50", tally);
  out->Set("gateway.service_us.p50", service_p50, "us");
  SetQuantile(out, "gateway.service_us.p99", g.service_us, 0.99, "us", tally);
  const auto per_batch = [&](const std::string& name, double count,
                             const std::string& unit) {
    out->Set(name, Ratio(count, batches, name, tally), unit);
  };
  per_batch("gateway.batch_size.mean", g.batched_requests, "count");
  per_batch("gateway.flush.full", static_cast<double>(g.full), "frac");
  per_batch("gateway.flush.budget", static_cast<double>(g.budget), "frac");
  per_batch("gateway.flush.drain", static_cast<double>(g.drain), "frac");
  per_batch("gateway.flush.fence", static_cast<double>(g.fence), "frac");
  out->Set("gateway.shed", static_cast<double>(g.shed), "count");
  out->Set("gateway.peak_queue", static_cast<double>(g.peak_queue), "count");
  SetQuantile(out, "gateway.p99_ms", g.latency_ms, 0.99, "ms", tally);
  double stalls = 0.0;
  double max_service = 0.0;
  for (double s : g.service_us.values()) {
    if (s > 10.0 * service_p50) stalls += 1.0;
    max_service = std::max(max_service, s);
  }
  // Over the kept service times: the reservoir may have thinned them.
  out->Set("gateway.stall_frac",
           Ratio(stalls, static_cast<double>(g.service_us.values().size()),
                 "gateway.stall_frac", tally),
           "frac");
  out->Set("gateway.max_stall_ms", max_service / 1e3, "ms");

  // --- Session (traced closed loop) and embedding store.
  const double k = static_cast<double>(kTraced);
  out->Set("session.gather.self_us",
           serve_spans.SelfUs("session", "gather") / k, "us");
  out->Set("session.gnn.self_us", serve_spans.SelfUs("session", "gnn") / k,
           "us");
  out->Set("session.head.self_us", serve_spans.SelfUs("session", "head") / k,
           "us");
  out->Set("session.gnn.unattributed_frac",
           Ratio(serve_spans.SelfUs("session", "gnn"),
                 serve_spans.TotalUs("session", "gnn"),
                 "session.gnn.unattributed_frac", tally),
           "frac");
  // Workspace and LRU counters come from the untraced closed loop.
  out->Set("session.steady_workspace_misses", plain.workspace_misses,
           "count");
  out->Set("session.open_ms", setup->open_ms, "ms");
  const double hits = static_cast<double>(plain.lazy_hits);
  const double misses = static_cast<double>(plain.lazy_misses);
  out->Set("lru.hit_ratio",
           Ratio(hits, hits + misses, "lru.hit_ratio", tally), "frac");
  out->Set("lru.misses_per_pair", misses / k, "count");

  // --- io: faults while serving (whole serving rounds, or the replays of
  // the ingest workload), per prediction served.
  const ServingFaults& faults =
      ingest_main ? m->ingest.faults : m->serve.faults;
  out->Set("io.minor_faults_per_request",
           Ratio(faults.faults.minor, faults.predictions,
                 "io.minor_faults_per_request", tally),
           "1/request");
  out->Set("io.major_faults_per_request",
           Ratio(faults.faults.major, faults.predictions,
                 "io.major_faults_per_request", tally),
           "1/request");
  out->Set("io.shard_mb", setup->shard_mb, "MiB");
  out->Set("io.export_s", setup->export_s, "s");

  // --- tensor: GEMM spans of the traced requests; flops and bytes are
  // computed from shapes (GemmFlops/GemmBytes span args), not measured.
  out->Set("gemm.w_aggregate.self_us",
           serve_spans.SelfUs("op", "gemm:w_aggregate") / k, "us");
  out->Set("gemm.w_filter.self_us",
           serve_spans.SelfUs("op", "gemm:w_filter") / k, "us");
  out->Set("gemm.mlp.self_us", serve_spans.SelfUs("op", "mlp") / k, "us");
  out->Set("gemm.flops_per_request", serve_spans.Flops("op") / k, "flop");
  out->Set("gemm.bytes_per_request", serve_spans.Bytes("op") / k, "B");

  // --- graph/dynamic_graph, core/evae and the ingest path.
  const double traced_nodes = static_cast<double>(traced_ingest.arrivals);
  out->Set("ingest.proximity.self_us",
           ingest_spans.SelfUs("ingest", "proximity") / traced_nodes, "us");
  out->Set("ingest.embed.self_us",
           ingest_spans.SelfUs("ingest", "embed") / traced_nodes, "us");
  out->Set("ingest.refresh.self_us",
           ingest_spans.SelfUs("ingest", "refresh") / traced_nodes, "us");
  const double nodes = static_cast<double>(m->ingest.nodes);
  const auto per_node = [&](const std::string& name, uint64_t count) {
    out->Set(name, Ratio(static_cast<double>(count), nodes, name, tally),
             "count");
  };
  per_node("ingest.edges_linked_per_node", m->ingest.edges_linked);
  per_node("ingest.rows_invalidated_per_node", m->ingest.rows_invalidated);
  per_node("ingest.rows_refreshed_per_node", m->ingest.rows_refreshed);
  out->Set("ingest.refresh_per_invalidation",
           Ratio(static_cast<double>(m->ingest.rows_refreshed),
                 static_cast<double>(m->ingest.rows_invalidated),
                 "ingest.refresh_per_invalidation", tally),
           "frac");
  out->Set("graph.rows_refreshed",
           static_cast<double>(m->ingest.graph_rows_refreshed), "count");
  out->Set("ingest.rss_kb_per_1k_nodes", m->ingest.rss_kb_per_1k_nodes,
           "KiB");

  // --- core/trainer, autograd and nn (one traced epoch).
  for (const char* phase : {"resample", "forward", "backward", "step"}) {
    out->Set(std::string("train.") + phase + ".self_ms",
             train_spans.SelfUs("trainer", phase) / 1e3, "ms");
  }
  out->Set("train.op.MatMul.self_ms", train_spans.SelfUs("op", "MatMul") / 1e3,
           "ms");
  out->Set("train.bwd.MatMul.self_ms",
           train_spans.SelfUs("bwd", "MatMul") / 1e3, "ms");
  out->Set("train.ops.self_ms",
           (train_spans.CategorySelfUs("op") +
            train_spans.CategorySelfUs("bwd")) / 1e3,
           "ms");
  out->Set("train.graph_build_s", setup->graph_build_s, "s");
  out->Set("eval.ms", m->eval_ms, "ms");

  // --- data, host and obs.
  out->Set("data.world_s", setup->world_s, "s");
  out->Set("host.calibration_us", CalibrationMedianUs(), "us");
  const double plain_p50 = Required(plain.single_us, 0.5, "plain p50", tally);
  const double traced_p50 =
      Required(traced.single_us, 0.5, "traced p50", tally);
  out->Set("obs.trace_overhead_frac",
           Ratio(traced_p50, plain_p50, "obs.trace_overhead_frac", tally) -
               1.0,
           "frac");
  out->Set("obs.train_trace_overhead_frac",
           Ratio(epoch_s[1], epoch_s[0], "obs.train_trace_overhead_frac",
                 tally) -
               1.0,
           "frac");
}

// A metric that is not a finite number is a failed check; it prints as 0 so
// the result stays valid JSON.
void PrintResult(Tally* tally, const Metrics& metrics) {
  for (const Metrics::Entry& entry : metrics.entries()) {
    if (!std::isfinite(entry.value)) {
      tally->Fail(1, entry.name + " is not a finite number");
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally->failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally->attempted),
              static_cast<unsigned long long>(tally->failed));
  bool first = true;
  for (const Metrics::Entry& entry : metrics.entries()) {
    const double value = std::isfinite(entry.value) ? entry.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", entry.name.c_str(), value,
                entry.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const std::optional<Params> params = ParseParams(argc, argv);
  if (!params) return 2;
  const Params& p = *params;
  std::filesystem::create_directories(p.workdir);
  Tally tally;
  Metrics metrics;
  {
    Measured measured = RunUntraced(p, &tally);
    if (p.trace) {
      PerLayer(p, &measured, &metrics, &tally);
    } else {
      EndToEnd(p, &measured, &metrics, &tally);
    }
  }
  std::error_code ignored;
  std::filesystem::remove(p.workdir + "/CKPT_perfbench.ckpt", ignored);
  PrintResult(&tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace agnn::perfbench

int main(int argc, char** argv) { return agnn::perfbench::Main(argc, argv); }
