#ifndef AGNN_PERFBENCH_BENCH_H_
#define AGNN_PERFBENCH_BENCH_H_

// Shared plumbing of the repository benchmark: clocks, process counters,
// failure accounting, metric output, and the declarations of the set-up and
// phase drivers (setup.cc, serve.cc, ingest.cc, trace_stats.cc).

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agnn/common/rng.h"
#include "agnn/core/inference_session.h"
#include "agnn/core/serving_checkpoint.h"
#include "agnn/core/serving_gateway.h"
#include "agnn/core/trainer.h"
#include "agnn/data/split.h"
#include "agnn/data/synthetic.h"
#include "agnn/data/synthetic_stream.h"
#include "agnn/obs/trace.h"
#include "summary.h"

namespace agnn::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
/// Exponential inter-arrival gap (µs) of a Poisson stream at `rate` per
/// second.
inline double PoissonGapUs(Rng* rng, double rate) {
  return -std::log(1.0 - rng->Uniform()) * 1e6 / rate;
}

/// Bitwise equality: the serving contracts compare bits, not values.
inline bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

// --- Host speed. -------------------------------------------------------------

/// Wall time (µs) of a fixed compute loop owned by the benchmark, so no
/// library change can move it. Measured work is bracketed by two of these to
/// track the shared host's speed, which drifts by up to 1.7x for tens of
/// seconds at a time (README). Every call is also kept for CalibrationMedianUs.
double CalibrationUs();
/// Median of every CalibrationUs() of the run so far (0 before the first).
double CalibrationMedianUs();

/// Calibration time that defines the reference host speed.
inline constexpr double kReferenceCalibrationUs = 1500.0;

/// Brackets one unit of measured work (a serving round, an ingest episode,
/// a training epoch) with calibration runs. Factor() converts wall time
/// measured inside the bracket to the reference host speed.
class SpeedBracket {
 public:
  SpeedBracket() : before_us_(CalibrationUs()) {}
  /// Ends the bracket; call once, after the work.
  double Factor() {
    return kReferenceCalibrationUs / (0.5 * (before_us_ + CalibrationUs()));
  }

 private:
  double before_us_;
};

// --- Process counters (Linux getrusage / procfs). ---------------------------

/// Peak resident set of this process, MiB.
double PeakRssMb();
/// Resident set right now, KiB (0 where /proc is unavailable).
double CurrentRssKb();
struct Faults {
  double minor = 0.0;
  double major = 0.0;
};
Faults ReadFaults();

/// Page faults taken while serving predictions, and the predictions served
/// meanwhile, so the figure per request does not grow with the number of
/// rounds a run fits in.
struct ServingFaults {
  Faults faults;
  double predictions = 0.0;

  /// Adds the faults since `before` and `predictions` served in between.
  void Add(const Faults& before, double served) {
    const Faults now = ReadFaults();
    faults.minor += now.minor - before.minor;
    faults.major += now.major - before.major;
    predictions += served;
  }
};

// --- Failure accounting. -----------------------------------------------------

/// Attempted operations and failed checks of one run. Every failed check
/// counts as a failed operation and makes the run incorrect.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Counts `count` failed operations (none when 0) and reports `what`.
  void Fail(uint64_t count, const std::string& what);
};

// --- Metric output. ----------------------------------------------------------

/// Metrics of one run in insertion order; emitted as the final JSON line.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Set(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// --- Set-up: world, training, serving checkpoint, sessions (setup.cc). -----

/// Seeds the world, its split and the training order. Fixed (the run's
/// --seed drives only the traffic), so every run sets up and trains on the
/// same inputs.
inline constexpr uint64_t kWorldSeed = 7;

struct SetupSpec {
  /// true: streamed world (SyntheticStream) trained on its warm prefix;
  /// false: eager GenerateSynthetic world trained on its own ICS split.
  bool streamed = false;
  data::Scale scale = data::Scale::kSmall;
  size_t chunk_size = 128;
  /// Streamed worlds only; 0 means half the catalog side.
  size_t warm_users = 0;
  size_t warm_items = 0;
  core::ServingPrecision precision = core::ServingPrecision::kF32;
  /// Lazy LRU rows per side; 0 means the whole catalog (every row stays
  /// cached once touched).
  size_t cache_rows = 0;
  /// 0 keeps the default AgnnConfig epoch count.
  size_t epochs = 0;
};

/// Everything the measured phases use. Not movable: the trainer and the
/// sessions hold references into it.
struct Setup {
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  SetupSpec spec;
  std::unique_ptr<data::SyntheticStream> stream;
  /// The dataset the model trains on: the warm replica of a streamed world,
  /// or the whole eager world.
  data::Dataset dataset;
  data::Split split;
  std::unique_ptr<core::AgnnTrainer> trainer;
  /// Serving catalog: the full world, with strict-cold flags for every node
  /// the trainer never saw (held-out ICS items and the streamed cold tail).
  size_t catalog_users = 0;
  size_t catalog_items = 0;
  size_t warm_users = 0;  ///< ids below this are the trained user prefix
  std::vector<bool> cold_users;
  std::vector<bool> cold_items;
  std::string checkpoint_path;
  std::unique_ptr<core::InferenceSession> lazy;
  /// Model-backed session with ingestion enabled.
  std::unique_ptr<core::InferenceSession> model_session;

  size_t epochs = 0;  ///< TrainTimed's epoch count
  double world_s = 0.0;
  double graph_build_s = 0.0;
  double export_s = 0.0;
  double open_ms = 0.0;
  double shard_mb = 0.0;
  /// Ratings per second of each training epoch (empty until trained).
  std::vector<double> epoch_ratings_per_s;
};

/// World, split and trainer construction. `train` runs Train() and then
/// Deploy(); otherwise the caller trains and deploys later.
std::unique_ptr<Setup> BuildSetup(const SetupSpec& spec,
                                  const std::string& workdir, bool train);
/// Trains for `epochs` epochs, recording per-epoch ratings/s.
void TrainTimed(Setup* setup);
/// Exports the trained model as a serving checkpoint, opens it lazily, and
/// builds the model-backed ingesting session.
void Deploy(Setup* setup);
/// A fresh model-backed session over the setup's trained model, with
/// ingestion enabled (top_k = 8).
std::unique_ptr<core::InferenceSession> NewModelSession(
    Setup* setup, obs::TraceRecorder* trace);
/// Opens another lazy session on the setup's checkpoint (same options).
std::unique_ptr<core::InferenceSession> OpenLazy(const Setup& setup,
                                                 obs::TraceRecorder* trace);
/// Lazy checkpoint session vs the model-backed session over a probe set of
/// trained-prefix requests: bitwise equal at f32, within the int8 accuracy
/// gate at int8. Returns the number of mismatching probes.
size_t ProbeLazyAgainstModel(Setup* setup, uint64_t seed, size_t probes);

// --- Gateway accounting shared by the serve and ingest phases. --------------

/// Gateway options of every phase; the queue is far deeper than any batch,
/// so admission never sheds (a shed request is a failed check).
core::ServingGatewayOptions GatewayOptions(size_t max_batch,
                                           double budget_us);

/// Per-request and per-batch figures of open-loop gateway traffic, taken
/// from ServingCompletions. Service time of a batch is complete -
/// max(flush, previous complete); server wait is the rest after the flush.
struct GatewayTimes {
  BoundedSample latency_ms;
  BoundedSample queue_wait_ms;
  BoundedSample server_wait_ms;
  BoundedSample service_us;  ///< per batch
  double batches = 0.0;
  double batched_requests = 0.0;
  uint64_t full = 0, budget = 0, drain = 0, fence = 0, shed = 0;
  uint64_t peak_queue = 0;

  /// Call for every completion, in delivery order, of one gateway.
  void Observe(const core::ServingCompletion& done);
  /// Ingests occupy the same server; call for each, in delivery order.
  void ObserveIngest(const core::IngestCompletion& done);
  /// Call once per gateway after its last completion.
  void Close(const core::ServingGatewayStats& stats);

 private:
  uint64_t open_batch_ = UINT64_MAX;
  double batch_start_us_ = 0.0;
  double prev_complete_us_ = 0.0;
};

// --- Serving phases (serve.cc). ----------------------------------------------

// Traffic shape shared by every workload; only the rate differs.
/// Zipf exponent of user and item popularity, and the gateway's batching
/// budget, in every phase.
inline constexpr double kZipfQ = 1.5;
inline constexpr double kBudgetUs = 2000.0;
/// Share of serving requests from strict-cold users.
inline constexpr double kColdFraction = 0.1;
inline constexpr size_t kMaxBatch = 32;
/// Requests per serving round; a multiple of kMaxBatch so the saturated
/// phase runs only full batches.
inline constexpr size_t kRoundRequests = 8192;
static_assert(kRoundRequests % kMaxBatch == 0);

struct ServeResult {
  BoundedSample single_us;  ///< closed-loop one-request latencies
  /// p99 of each round's closed-loop latencies: the run reports their
  /// median, so one stalled second of a shared host does not set the tail.
  std::vector<double> round_single_p99_us;
  double saturated_served = 0.0;
  double saturated_busy_us = 0.0;
  GatewayTimes open;
  ServingFaults faults;  ///< over whole rounds
};

class RequestStream;

/// Rounds of (closed loop, saturated gateway, open-loop gateway) over
/// successive segments of one seeded request stream. Every gateway
/// prediction is checked bitwise against the closed loop's one-by-one
/// Predict of the same request, and every prediction must be finite.
class ServeLoop {
 public:
  ServeLoop(core::InferenceSession* session, const Setup& setup, double qps,
            uint64_t seed);
  ~ServeLoop();
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  void Round(Tally* tally);
  /// Records the failed checks in `tally` and returns the results.
  ServeResult Finish(Tally* tally);

 private:
  core::InferenceSession* session_;
  std::unique_ptr<RequestStream> stream_;
  std::vector<core::ServingRequest> requests_;
  std::vector<double> arrival_us_;
  std::vector<float> direct_;
  std::vector<double> round_us_;
  double previous_round_end_us_ = 0.0;
  uint64_t mismatches_ = 0;
  uint64_t non_finite_ = 0;
  uint64_t shed_ = 0;
  ServeResult result_;
};

struct ClosedLoopResult {
  std::vector<double> single_us;
  uint64_t lazy_hits = 0, lazy_misses = 0;
  double workspace_misses = 0.0;
};

/// Closed-loop single Predicts for the traced-run comparison: `warmup`
/// untimed requests of the stream (after which `clear`, if set, is
/// emptied), then `count` timed ones. Counters cover the timed part only.
ClosedLoopResult RunClosedLoop(core::InferenceSession* session,
                               const Setup& setup, double qps, uint64_t seed,
                               size_t warmup, size_t count,
                               obs::TraceRecorder* clear);

// --- Ingestion phases (ingest.cc). ------------------------------------------

/// Gateway batch of ingest episodes, and the share of their predicts that
/// target nodes ingested so far.
inline constexpr size_t kIngestMaxBatch = 16;
inline constexpr double kIngestTargetFraction = 0.25;

struct IngestSpec {
  double predict_qps = 20000.0;
  /// A multiple of kIngestMaxBatch, so the saturated replay runs only full
  /// batches.
  size_t predicts = 20000;
  double ingest_rate = 2000.0;
  size_t arrivals = 2000;
};

struct IngestResult {
  GatewayTimes predict;
  BoundedSample ingest_ms;  ///< time-to-serve per arrival
  BoundedSample replay_us;  ///< one-by-one replay Predict latencies
  std::vector<double> episode_replay_p99_us;  ///< as round_single_p99_us
  double saturated_served = 0.0;
  double saturated_busy_us = 0.0;
  ServingFaults faults;  ///< over the one-by-one and batched replays
  size_t episodes = 0;
  // First episode only (deterministic for a seed).
  uint64_t nodes = 0, edges_linked = 0, rows_invalidated = 0,
           rows_refreshed = 0, graph_rows_refreshed = 0;
  double rss_kb_per_1k_nodes = 0.0;
};

/// One merged predict/ingest stream through a gateway over `session`
/// (ingestion enabled), then the one-by-one replay gate (timed: single
/// Predict latencies), a saturated batched replay of the same requests, and
/// the probe/rebuild/probe gate. Appends into `result`.
void RunIngestEpisode(core::InferenceSession* session, const Setup& setup,
                      const IngestSpec& spec, uint64_t seed,
                      IngestResult* result, Tally* tally);

// --- Trace summaries (trace_stats.cc). --------------------------------------

/// Exclusive/inclusive time and attributed cost of every (category, name)
/// span group a recorder holds. A reported figure must rest on recorded
/// spans: a span group that is missing or empty, a category without spans
/// or cost, or a recorder that dropped events is a failed check in `tally`
/// (the figure then reads 0), never a silent 0.
class SpanTable {
 public:
  SpanTable(const obs::TraceRecorder& recorder, const std::string& what,
            Tally* tally);
  double SelfUs(const std::string& category, const std::string& name) const;
  double TotalUs(const std::string& category, const std::string& name) const;
  /// Sum of "flops"/"bytes" args over all groups of `category`.
  double Flops(const std::string& category) const;
  double Bytes(const std::string& category) const;
  /// Exclusive time of all groups of `category`.
  double CategorySelfUs(const std::string& category) const;

 private:
  const obs::TraceRecorder::SummaryRow* Row(const std::string& category,
                                            const std::string& name) const;
  /// Sums `field` over the groups of `category`; fails when it is not > 0.
  double CategorySum(const std::string& category,
                     double obs::TraceRecorder::SummaryRow::*field,
                     const char* figure) const;

  std::map<std::pair<std::string, std::string>,
           obs::TraceRecorder::SummaryRow>
      rows_;
  std::string what_;
  Tally* tally_;
};

}  // namespace agnn::perfbench

#endif  // AGNN_PERFBENCH_BENCH_H_
