// Ingestion phase: Zipf predicts and Poisson attribute-only node arrivals
// merged on one virtual clock through a gateway over an ingesting
// model-backed session, followed by its correctness gates.

#include <algorithm>
#include <cmath>
#include <optional>

#include "agnn/common/logging.h"
#include "agnn/graph/dynamic_graph.h"
#include "bench.h"

namespace agnn::perfbench {
namespace {

// Three random sorted-unique attribute slots for one arriving node.
std::vector<size_t> ArrivalSlots(Rng* rng, size_t total_slots) {
  std::vector<size_t> slots;
  for (int i = 0; i < 3; ++i) slots.push_back(rng->UniformInt(total_slots));
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

}  // namespace

void RunIngestEpisode(core::InferenceSession* session, const Setup& setup,
                      const IngestSpec& spec, uint64_t seed,
                      IngestResult* result, Tally* tally) {
  AGNN_CHECK(session->ingestion_enabled());
  AGNN_CHECK_EQ(spec.predicts % kIngestMaxBatch, 0u);
  SpeedBracket speed;
  const data::Dataset& dataset = setup.dataset;
  const size_t s = session->neighbors_per_node();
  const size_t base_users = session->num_users();
  const size_t base_items = session->num_items();

  // Two Poisson streams, merged in time order below.
  Rng load_rng(seed ^ 0xc01dc0deULL);
  std::vector<double> predict_at(spec.predicts);
  double t = 0.0;
  for (double& at : predict_at) {
    t += PoissonGapUs(&load_rng, spec.predict_qps);
    at = t;
  }
  std::vector<double> ingest_at(spec.arrivals);
  std::vector<core::IngestArrival> arrivals(spec.arrivals);
  t = 0.0;
  for (size_t a = 0; a < spec.arrivals; ++a) {
    t += PoissonGapUs(&load_rng, spec.ingest_rate);
    ingest_at[a] = t;
    arrivals[a].user_side = load_rng.Bernoulli(0.5);
    arrivals[a].attr_slots = ArrivalSlots(
        &load_rng, arrivals[a].user_side ? dataset.user_schema.total_slots()
                                         : dataset.item_schema.total_slots());
  }

  // Requests are built at submit time so they can target nodes ingested
  // so far; each is kept for the replay gates.
  std::vector<core::ServingRequest> submitted;
  submitted.reserve(spec.predicts);
  std::vector<float> gateway_pred(spec.predicts, 0.0f);
  const core::ServingGatewayOptions options =
      GatewayOptions(kIngestMaxBatch, kBudgetUs);
  GatewayTimes& times = result->predict;
  core::ServingGateway gateway(
      session, options, [&](const core::ServingCompletion& done) {
        times.Observe(done);
        gateway_pred[done.id] = done.prediction;
      });
  std::vector<double> ingest_ms;
  ingest_ms.reserve(spec.arrivals);
  gateway.set_ingest_sink([&](const core::IngestCompletion& done) {
    times.ObserveIngest(done);
    ingest_ms.push_back(done.latency_us / 1e3);
  });

  const double rss0_kb = CurrentRssKb();
  Rng mix_rng(seed ^ 0x1e57ab1eULL);
  size_t pi = 0;
  size_t ii = 0;
  double last_at = 0.0;
  uint64_t shed = 0;
  while (pi < spec.predicts || ii < spec.arrivals) {
    if (ii < spec.arrivals &&
        (pi >= spec.predicts || ingest_at[ii] <= predict_at[pi])) {
      gateway.SubmitIngest(arrivals[ii], ingest_at[ii]);
      last_at = ingest_at[ii];
      ++ii;
      continue;
    }
    core::ServingRequest req;
    const size_t extra_users = session->num_users() - base_users;
    const size_t extra_items = session->num_items() - base_items;
    req.user = extra_users > 0 && mix_rng.Bernoulli(kIngestTargetFraction)
                   ? base_users + mix_rng.UniformInt(extra_users)
                   : mix_rng.Zipf(base_users, kZipfQ);
    req.item = extra_items > 0 && mix_rng.Bernoulli(kIngestTargetFraction)
                   ? base_items + mix_rng.UniformInt(extra_items)
                   : mix_rng.Zipf(base_items, kZipfQ);
    // The library's neighbor sampling draws from an RNG of its own per
    // request, so the ids above never depend on how many draws it makes.
    Rng sample_rng(seed ^
                   (0x5a3b1e5eedULL + 0x9e3779b97f4a7c15ULL * (pi + 1)));
    session->SampleIngestNeighborsInto(/*user_side=*/true, req.user, s,
                                       &sample_rng, &req.user_neighbors);
    session->SampleIngestNeighborsInto(/*user_side=*/false, req.item, s,
                                       &sample_rng, &req.item_neighbors);
    submitted.push_back(req);
    if (!gateway.Submit(submitted.back(), predict_at[pi])) ++shed;
    last_at = predict_at[pi];
    ++pi;
  }
  gateway.Drain(last_at + kBudgetUs);
  times.Close(gateway.stats());
  const double rss1_kb = CurrentRssKb();

  if (result->episodes == 0) {
    const core::InferenceSession::IngestStats& stats = session->ingest_stats();
    result->nodes = stats.ingested_users + stats.ingested_items;
    result->edges_linked = stats.edges_linked;
    result->rows_invalidated = stats.rows_invalidated;
    result->rows_refreshed = stats.rows_refreshed;
    result->graph_rows_refreshed =
        session->ingest_graph(true)->rows_refreshed() +
        session->ingest_graph(false)->rows_refreshed();
    result->rss_kb_per_1k_nodes =
        (rss1_kb - rss0_kb) / (static_cast<double>(spec.arrivals) / 1e3);
  }

  // Replay gate, timed: every served request one-by-one against the
  // post-run session. Lazy refreshes recompute identical rows, so each
  // mid-run gateway prediction must reproduce bit for bit.
  const Faults faults0 = ReadFaults();
  std::vector<float> replay(submitted.size());
  std::vector<double> replay_us(submitted.size());
  uint64_t mismatches = 0;
  uint64_t non_finite = 0;
  for (size_t i = 0; i < submitted.size(); ++i) {
    const core::ServingRequest& req = submitted[i];
    const Clock::time_point t0 = Clock::now();
    replay[i] = session->Predict(req.user, req.item, req.user_neighbors,
                                 req.item_neighbors);
    replay_us[i] = MicrosBetween(t0, Clock::now());
    if (!SameBits(replay[i], gateway_pred[i])) ++mismatches;
    if (!std::isfinite(replay[i])) ++non_finite;
  }

  // Saturated batched replay of the same requests: full batches back to
  // back, each prediction equal to its one-by-one replay.
  double saturated_busy_us = 0.0;
  {
    core::ServingGateway saturated(
        session, options, [&](const core::ServingCompletion& done) {
          if (!SameBits(done.prediction, replay[done.id])) ++mismatches;
        });
    for (const core::ServingRequest& req : submitted) {
      if (!saturated.Submit(req, 0.0)) ++shed;
    }
    saturated.Drain(0.0);
    result->saturated_served += static_cast<double>(saturated.stats().served);
    saturated_busy_us = saturated.server_free_at_us();
  }
  result->faults.Add(faults0, static_cast<double>(2 * submitted.size()));

  // Probe / full rebuild / probe: the batch rebuild must not move a bit.
  const size_t probes = std::min<size_t>(submitted.size(), 64);
  uint64_t rebuild_mismatches = 0;
  session->RebuildIngestCaches();
  for (size_t i = 0; i < probes; ++i) {
    const core::ServingRequest& req = submitted[i];
    if (!SameBits(session->Predict(req.user, req.item, req.user_neighbors,
                                   req.item_neighbors),
                  replay[i])) {
      ++rebuild_mismatches;
    }
  }

  // Compute-bound timings go to the reference host speed; the gateway's
  // open-loop predict latencies stay as measured. Time-to-serve is scaled
  // as a whole, although part of it is queueing on the virtual clock.
  const double factor = speed.Factor();
  for (double ms : ingest_ms) result->ingest_ms.Add(ms * factor);
  for (double& us : replay_us) {
    us *= factor;
    result->replay_us.Add(us);
  }
  if (std::optional<double> p99 = Quantile(std::move(replay_us), 0.99)) {
    result->episode_replay_p99_us.push_back(*p99);
  }
  result->saturated_busy_us += saturated_busy_us * factor;

  ++result->episodes;
  tally->attempted += 2 * spec.predicts + spec.arrivals + probes;
  tally->Fail(mismatches, "ingest replay differs from gateway prediction");
  tally->Fail(rebuild_mismatches, "prediction moved across a full rebuild");
  tally->Fail(non_finite, "non-finite prediction during ingestion");
  tally->Fail(shed, "gateway shed requests during ingestion");
}

}  // namespace agnn::perfbench
