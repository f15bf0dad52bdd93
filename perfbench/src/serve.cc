// Serving phases: one seeded request stream driven closed loop (one caller
// waiting for each reply), through a saturated gateway (back-to-back full
// batches), and open loop at a fixed Poisson rate on the gateway's virtual
// clock.

#include <algorithm>
#include <cmath>
#include <optional>

#include "agnn/common/logging.h"
#include "bench.h"

namespace agnn::perfbench {

// Poisson arrivals; warm users by Zipf rank, a fixed share of strict-cold
// users uniform over the cold tail, items by Zipf rank over the catalog,
// neighbor ids uniform over the catalog.
class RequestStream {
 public:
  RequestStream(const Setup& setup, double qps, size_t neighbors,
                uint64_t seed)
      : rng_(seed),
        qps_(qps),
        neighbors_(neighbors),
        warm_users_(setup.warm_users),
        users_(setup.catalog_users),
        items_(setup.catalog_items) {}

  void Next(core::ServingRequest* req, double* arrival_us) {
    now_us_ += PoissonGapUs(&rng_, qps_);
    *arrival_us = now_us_;
    const bool cold =
        warm_users_ < users_ && rng_.Bernoulli(kColdFraction);
    req->user = cold ? warm_users_ + rng_.UniformInt(users_ - warm_users_)
                     : rng_.Zipf(warm_users_, kZipfQ);
    req->item = rng_.Zipf(items_, kZipfQ);
    req->user_neighbors.resize(neighbors_);
    req->item_neighbors.resize(neighbors_);
    for (size_t k = 0; k < neighbors_; ++k) {
      req->user_neighbors[k] = rng_.UniformInt(users_);
      req->item_neighbors[k] = rng_.UniformInt(items_);
    }
  }

 private:
  Rng rng_;
  double qps_;
  size_t neighbors_;
  size_t warm_users_;
  size_t users_;
  size_t items_;
  double now_us_ = 0.0;
};

namespace {

uint64_t LazyHits(core::InferenceSession* session) {
  uint64_t hits = 0;
  for (const core::LazyEmbeddingStore* store :
       {session->lazy_user_store(), session->lazy_item_store()}) {
    if (store != nullptr) hits += store->hits();
  }
  return hits;
}

uint64_t LazyMisses(core::InferenceSession* session) {
  uint64_t misses = 0;
  for (const core::LazyEmbeddingStore* store :
       {session->lazy_user_store(), session->lazy_item_store()}) {
    if (store != nullptr) misses += store->misses();
  }
  return misses;
}

}  // namespace

core::ServingGatewayOptions GatewayOptions(size_t max_batch,
                                           double budget_us) {
  core::ServingGatewayOptions options;
  options.max_batch = max_batch;
  options.budget_us = budget_us;
  options.queue_capacity = 4096;
  return options;
}

void GatewayTimes::Observe(const core::ServingCompletion& done) {
  if (done.batch != open_batch_) {
    open_batch_ = done.batch;
    batch_start_us_ = std::max(done.flush_us, prev_complete_us_);
    prev_complete_us_ = done.complete_us;
    service_us.Add(done.complete_us - batch_start_us_);
    batches += 1.0;
    batched_requests += static_cast<double>(done.batch_size);
    switch (done.reason) {
      case core::FlushReason::kBatchFull: ++full; break;
      case core::FlushReason::kBudget: ++budget; break;
      case core::FlushReason::kDrain: ++drain; break;
      case core::FlushReason::kIngestFence: ++fence; break;
    }
  }
  latency_ms.Add(done.latency_us / 1e3);
  queue_wait_ms.Add((done.flush_us - done.arrival_us) / 1e3);
  server_wait_ms.Add((batch_start_us_ - done.flush_us) / 1e3);
}

void GatewayTimes::ObserveIngest(const core::IngestCompletion& done) {
  prev_complete_us_ = done.complete_us;
}

void GatewayTimes::Close(const core::ServingGatewayStats& stats) {
  shed += stats.shed;
  peak_queue = std::max<uint64_t>(peak_queue, stats.peak_queue_depth);
  open_batch_ = UINT64_MAX;
  prev_complete_us_ = 0.0;
}

ServeLoop::ServeLoop(core::InferenceSession* session, const Setup& setup,
                     double qps, uint64_t seed)
    : session_(session),
      stream_(std::make_unique<RequestStream>(
          setup, qps, session->neighbors_per_node(), seed)),
      requests_(kRoundRequests),
      arrival_us_(kRoundRequests),
      direct_(kRoundRequests),
      round_us_(kRoundRequests) {}

ServeLoop::~ServeLoop() = default;

void ServeLoop::Round(Tally* tally) {
  SpeedBracket speed;
  const size_t n = kRoundRequests;
  const core::ServingGatewayOptions options =
      GatewayOptions(kMaxBatch, kBudgetUs);
  for (size_t i = 0; i < n; ++i) {
    stream_->Next(&requests_[i], &arrival_us_[i]);
    arrival_us_[i] -= previous_round_end_us_;
  }
  previous_round_end_us_ += arrival_us_[n - 1];
  const Faults faults0 = ReadFaults();

  // Closed loop: one caller, each Predict timed on its own.
  for (size_t i = 0; i < n; ++i) {
    const core::ServingRequest& req = requests_[i];
    const Clock::time_point t0 = Clock::now();
    direct_[i] = session_->Predict(req.user, req.item, req.user_neighbors,
                                   req.item_neighbors);
    round_us_[i] = MicrosBetween(t0, Clock::now());
    if (!std::isfinite(direct_[i])) ++non_finite_;
  }

  double saturated_busy_us = 0.0;
  // Saturated: every request queued at the same instant, so each batch
  // flushes full and the server works back to back; its busy time is the
  // sum of the measured batch service times.
  {
    core::ServingGateway gateway(
        session_, options, [&](const core::ServingCompletion& done) {
          if (!SameBits(done.prediction, direct_[done.id])) ++mismatches_;
        });
    for (size_t i = 0; i < n; ++i) {
      if (!gateway.Submit(requests_[i], 0.0)) ++shed_;
    }
    gateway.Drain(0.0);
    result_.saturated_served += static_cast<double>(gateway.stats().served);
    saturated_busy_us = gateway.server_free_at_us();
  }

  // Open loop at the fixed rate: arrivals never wait for the server, and
  // each request is timed from its scheduled arrival.
  {
    core::ServingGateway gateway(
        session_, options, [&](const core::ServingCompletion& done) {
          result_.open.Observe(done);
          if (!SameBits(done.prediction, direct_[done.id])) ++mismatches_;
        });
    for (size_t i = 0; i < n; ++i) {
      if (!gateway.Submit(requests_[i], arrival_us_[i])) ++shed_;
    }
    gateway.Drain(arrival_us_[n - 1] + kBudgetUs);
    result_.open.Close(gateway.stats());
  }

  result_.faults.Add(faults0, static_cast<double>(3 * n));

  // Compute-bound timings go to the reference host speed; open-loop
  // latencies stay as measured (their queueing runs on the virtual clock).
  const double factor = speed.Factor();
  for (double& us : round_us_) {
    us *= factor;
    result_.single_us.Add(us);
  }
  if (std::optional<double> p99 = Quantile(round_us_, 0.99)) {
    result_.round_single_p99_us.push_back(*p99);
  }
  result_.saturated_busy_us += saturated_busy_us * factor;

  tally->attempted += 3 * n;
}

ServeResult ServeLoop::Finish(Tally* tally) {
  tally->Fail(mismatches_,
              "gateway prediction differs from one-by-one Predict");
  tally->Fail(non_finite_, "non-finite prediction");
  tally->Fail(shed_, "gateway shed requests");
  return std::move(result_);
}

ClosedLoopResult RunClosedLoop(core::InferenceSession* session,
                               const Setup& setup, double qps, uint64_t seed,
                               size_t warmup, size_t count,
                               obs::TraceRecorder* clear) {
  RequestStream stream(setup, qps, session->neighbors_per_node(), seed);
  core::ServingRequest req;
  double arrival_us = 0.0;
  for (size_t i = 0; i < warmup; ++i) {
    stream.Next(&req, &arrival_us);
    session->Predict(req.user, req.item, req.user_neighbors,
                     req.item_neighbors);
  }
  if (clear != nullptr) clear->Clear();
  ClosedLoopResult result;
  result.single_us.reserve(count);
  const uint64_t hits0 = LazyHits(session);
  const uint64_t misses0 = LazyMisses(session);
  const double workspace0 = static_cast<double>(session->workspace()->misses());
  for (size_t i = 0; i < count; ++i) {
    stream.Next(&req, &arrival_us);
    const Clock::time_point t0 = Clock::now();
    session->Predict(req.user, req.item, req.user_neighbors,
                     req.item_neighbors);
    result.single_us.push_back(MicrosBetween(t0, Clock::now()));
  }
  result.lazy_hits = LazyHits(session) - hits0;
  result.lazy_misses = LazyMisses(session) - misses0;
  result.workspace_misses =
      static_cast<double>(session->workspace()->misses()) - workspace0;
  return result;
}

}  // namespace agnn::perfbench
