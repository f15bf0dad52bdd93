// Set-up of one workload: world generation, split, trainer, training,
// serving-checkpoint export and the sessions the measured phases drive. All
// through the library's public entry points.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "agnn/common/logging.h"
#include "bench.h"

namespace agnn::perfbench {
namespace {

BoundedSample& CalibrationHistory() {
  static BoundedSample history;
  return history;
}

}  // namespace

double CalibrationUs() {
  // 20 passes of a 48x48x48 float GEMM (about 4.4 MFLOP, L1-resident).
  constexpr size_t kN = 48;
  static std::vector<float> a(kN * kN, 1.0f);
  static std::vector<float> b(kN * kN, 0.5f);
  static std::vector<float> c(kN * kN);
  const Clock::time_point t0 = Clock::now();
  std::fill(c.begin(), c.end(), 0.0f);
  for (int pass = 0; pass < 20; ++pass) {
    for (size_t i = 0; i < kN; ++i) {
      for (size_t k = 0; k < kN; ++k) {
        const float x = a[i * kN + k];
        for (size_t j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
      }
    }
    a[pass] = 1.0f + c[pass * 7] * 1e-9f;  // a data dependency per pass
  }
  volatile float sink = c[kN * kN - 1];
  (void)sink;
  const double us = MicrosBetween(t0, Clock::now());
  CalibrationHistory().Add(us);
  return us;
}

double CalibrationMedianUs() {
  return Median(CalibrationHistory().values()).value_or(0.0);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double CurrentRssKb() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0.0;
  double pages_resident = 0.0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

Faults ReadFaults() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return {static_cast<double>(usage.ru_minflt),
          static_cast<double>(usage.ru_majflt)};
}

void Tally::Fail(uint64_t count, const std::string& what) {
  if (count == 0) return;
  failed += count;
  std::fprintf(stderr, "CHECK FAILED: %s (%llu)\n", what.c_str(),
               static_cast<unsigned long long>(count));
}

std::unique_ptr<Setup> BuildSetup(const SetupSpec& spec,
                                  const std::string& workdir, bool train) {
  const uint64_t seed = kWorldSeed;
  auto setup = std::make_unique<Setup>();
  setup->spec = spec;
  setup->checkpoint_path = workdir + "/CKPT_perfbench.ckpt";

  const Clock::time_point world0 = Clock::now();
  const data::SyntheticConfig config =
      data::SyntheticConfig::Ml100k(spec.scale);
  if (spec.streamed) {
    data::StreamOptions options;
    options.chunk_size = spec.chunk_size;
    options.warm_users =
        spec.warm_users > 0 ? spec.warm_users : config.num_users / 2;
    options.warm_items =
        spec.warm_items > 0 ? spec.warm_items : config.num_items / 2;
    options.ratings_per_warm_user = std::min<size_t>(options.warm_items, 24);
    setup->stream =
        std::make_unique<data::SyntheticStream>(config, options, seed);
    setup->dataset = setup->stream->MaterializeWarmReplica();
    setup->catalog_users = setup->stream->num_users();
    setup->catalog_items = setup->stream->num_items();
  } else {
    setup->dataset = data::GenerateSynthetic(config, seed);
    setup->catalog_users = setup->dataset.num_users;
    setup->catalog_items = setup->dataset.num_items;
  }
  Rng split_rng(seed ^ 0x5b1175eedULL);
  setup->split = data::MakeSplit(setup->dataset,
                                 data::Scenario::kItemColdStart, 0.2,
                                 &split_rng);
  setup->warm_users = setup->dataset.num_users;
  setup->cold_users.assign(setup->catalog_users, true);
  setup->cold_items.assign(setup->catalog_items, true);
  for (size_t u = 0; u < setup->dataset.num_users; ++u) {
    setup->cold_users[u] = setup->split.cold_user[u];
  }
  for (size_t i = 0; i < setup->dataset.num_items; ++i) {
    setup->cold_items[i] = setup->split.cold_item[i];
  }
  setup->world_s = SecondsSince(world0);

  const Clock::time_point graph0 = Clock::now();
  core::AgnnConfig agnn;
  setup->epochs = spec.epochs > 0 ? spec.epochs : agnn.epochs;
  agnn.epochs = 1;
  setup->trainer = std::make_unique<core::AgnnTrainer>(setup->dataset,
                                                       setup->split, agnn);
  setup->graph_build_s = SecondsSince(graph0);

  if (train) {
    TrainTimed(setup.get());
    Deploy(setup.get());
  }
  return setup;
}

void TrainTimed(Setup* setup) {
  // One Train() call per epoch on a trainer built with epochs = 1. The
  // epoch loop body never reads the epoch index, so this trains exactly like
  // one multi-epoch call, and the benchmark times each epoch itself.
  const double ratings = static_cast<double>(setup->split.train.size());
  for (size_t epoch = 0; epoch < setup->epochs; ++epoch) {
    SpeedBracket speed;
    const Clock::time_point t0 = Clock::now();
    setup->trainer->Train();
    const double seconds = SecondsSince(t0);
    setup->epoch_ratings_per_s.push_back(ratings /
                                         (seconds * speed.Factor()));
  }
}

std::unique_ptr<core::InferenceSession> OpenLazy(const Setup& setup,
                                                 obs::TraceRecorder* trace) {
  core::InferenceSession::ServingOptions options;
  options.lazy = true;
  options.cache_rows =
      setup.spec.cache_rows > 0
          ? setup.spec.cache_rows
          : std::max(setup.catalog_users, setup.catalog_items);
  options.precision = setup.spec.precision;
  auto session = core::InferenceSession::FromServingCheckpoint(
      setup.checkpoint_path, options, nullptr, trace);
  AGNN_CHECK(session.ok()) << session.status().ToString();
  return std::move(*session);
}

std::unique_ptr<core::InferenceSession> NewModelSession(
    Setup* setup, obs::TraceRecorder* trace) {
  auto session = std::make_unique<core::InferenceSession>(
      setup->trainer->model(), &setup->split.cold_user,
      &setup->split.cold_item, nullptr, trace);
  core::InferenceSession::IngestOptions options;
  options.top_k = 8;
  session->EnableIngestion(setup->dataset, options);
  return session;
}

void Deploy(Setup* setup) {
  const Clock::time_point export0 = Clock::now();
  core::ServingCatalog catalog;
  catalog.num_users = setup->catalog_users;
  catalog.num_items = setup->catalog_items;
  catalog.cold_users = &setup->cold_users;
  catalog.cold_items = &setup->cold_items;
  // Streamed worlds hand out attributes chunk by chunk, one cached chunk
  // per side, so the export never holds the catalog at once.
  struct ChunkCache {
    size_t chunk = static_cast<size_t>(-1);
    data::NodeChunk data;
  };
  ChunkCache user_cache;
  ChunkCache item_cache;
  const data::SyntheticStream* stream = setup->stream.get();
  const data::Dataset& dataset = setup->dataset;
  catalog.attrs = [&](bool user_side, size_t begin, size_t count) {
    std::vector<std::vector<size_t>> out;
    out.reserve(count);
    for (size_t id = begin; id < begin + count; ++id) {
      if (stream == nullptr) {
        out.push_back(user_side ? dataset.user_attrs[id]
                                : dataset.item_attrs[id]);
        continue;
      }
      ChunkCache* cache = user_side ? &user_cache : &item_cache;
      const size_t chunk = id / stream->options().chunk_size;
      if (cache->chunk != chunk) {
        cache->data =
            user_side ? stream->UserChunk(chunk) : stream->ItemChunk(chunk);
        cache->chunk = chunk;
      }
      out.push_back(cache->data.attrs[id - cache->data.begin]);
    }
    return out;
  };
  const Status exported = core::ExportServingCheckpoint(
      setup->trainer->model(), catalog, setup->checkpoint_path,
      setup->spec.precision);
  AGNN_CHECK(exported.ok()) << exported.ToString();
  setup->export_s = SecondsSince(export0);
  setup->shard_mb =
      static_cast<double>(std::filesystem::file_size(setup->checkpoint_path)) /
      (1024.0 * 1024.0);

  const Clock::time_point open0 = Clock::now();
  setup->lazy = OpenLazy(*setup, nullptr);
  setup->open_ms = SecondsSince(open0) * 1e3;
  setup->model_session = NewModelSession(setup, nullptr);
}

size_t ProbeLazyAgainstModel(Setup* setup, uint64_t seed, size_t probes) {
  Rng rng(seed ^ 0x9e0be5eedULL);
  core::InferenceSession* lazy = setup->lazy.get();
  core::InferenceSession* model = setup->model_session.get();
  const size_t users = setup->dataset.num_users;
  const size_t items = setup->dataset.num_items;
  const size_t neighbors = lazy->neighbors_per_node();
  const bool exact = setup->spec.precision == core::ServingPrecision::kF32;
  std::vector<size_t> user_neighbors(neighbors);
  std::vector<size_t> item_neighbors(neighbors);
  size_t mismatches = 0;
  for (size_t p = 0; p < probes; ++p) {
    const size_t user = rng.UniformInt(users);
    const size_t item = rng.UniformInt(items);
    for (size_t k = 0; k < neighbors; ++k) {
      user_neighbors[k] = rng.UniformInt(users);
      item_neighbors[k] = rng.UniformInt(items);
    }
    const float served =
        lazy->Predict(user, item, user_neighbors, item_neighbors);
    const float reference =
        model->Predict(user, item, user_neighbors, item_neighbors);
    // int8 shards are lossy by design: the DESIGN.md §15 accuracy gate
    // (0.25 rating points) replaces bitwise equality there.
    const bool ok = std::isfinite(served) &&
                    (exact ? SameBits(served, reference)
                           : std::fabs(served - reference) <= 0.25f);
    if (!ok) ++mismatches;
  }
  return mismatches;
}

}  // namespace agnn::perfbench
