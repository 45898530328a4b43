/// \file abl_query_throughput.cpp
/// Ablation for the query-serving engine: what does it cost to answer
/// Section 5 queries at high rate while the model keeps being rebuilt?
/// Three scenarios:
///   * recalib — single-thread incremental vs full junction-tree
///     recalibration across a stream of evidence changes (the serving
///     hot path: one calibration + one posterior per query),
///   * batch   — QueryEngine batch throughput and p99 latency at 1/2/4/8
///     pool threads against a published eDiaMoND snapshot,
///   * mixed   — batch serving while a ModelManager concurrently rebuilds
///     and hot-swaps snapshots underneath the readers,
///   * snapshot — publishing one rebuilt eDiaMoND model (make_model_snapshot)
///     at 3 and 4 bins, against the legacy Factor fold of its families.
///
/// Scaling across threads is hardware-dependent: on a single-core host the
/// 2/4/8-thread rows measure scheduling overhead, not speedup (EXPERIMENTS
/// records the host used for the committed JSON).

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "bn/factor.hpp"
#include "bn/junction_tree.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/cpu_features.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "kert/kert_builder.hpp"
#include "kert/model_manager.hpp"
#include "kert/query_engine.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace kertbn;

constexpr std::size_t kBins = 3;

bench::SeriesCollector& series() {
  static bench::SeriesCollector collector(
      "Ablation: query-serving throughput",
      {"scenario", "param", "value"});
  return collector;
}

/// Random connected discrete network: 1–3 parents per non-root node (so
/// the junction tree is one component with many small cliques — the
/// regime where incremental recalibration pays; a fragmented forest would
/// cap the full-recalibration cost instead). `card_lo`/`card_span` set
/// the cardinality range: 2–3 mirrors coarse KERT discretization, 8–11
/// mirrors fine-binned models whose factor tables have inner runs long
/// enough for the SIMD kernels to fill vector lanes.
bn::BayesianNetwork random_network(std::size_t n, std::uint64_t seed,
                                   std::size_t card_lo = 2,
                                   std::size_t card_span = 2,
                                   std::size_t max_parents_cap = 3) {
  Rng rng(seed);
  bn::BayesianNetwork net;
  for (std::size_t i = 0; i < n; ++i) {
    net.add_node(bn::Variable::discrete(
        "v" + std::to_string(i), card_lo + rng.uniform_index(card_span)));
  }
  for (std::size_t v = 1; v < n; ++v) {
    const std::size_t max_parents = std::min<std::size_t>(v, max_parents_cap);
    const std::size_t k = 1 + rng.uniform_index(max_parents);
    auto perm = rng.permutation(v);
    for (std::size_t i = 0; i < k; ++i) net.add_edge(perm[i], v);
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t configs = 1;
    std::vector<std::size_t> cards;
    for (std::size_t p : net.dag().parents(v)) {
      cards.push_back(net.variable(p).cardinality);
      configs *= net.variable(p).cardinality;
    }
    const std::size_t card = net.variable(v).cardinality;
    std::vector<double> table;
    table.reserve(configs * card);
    for (std::size_t c = 0; c < configs * card; ++c) {
      table.push_back(rng.uniform(0.05, 1.0));
    }
    net.set_cpd(v, std::make_unique<bn::TabularCpd>(
                       bn::TabularCpd(card, cards, table)));
  }
  return net;
}

/// One serving op: recalibrate on fresh evidence, read one posterior.
double serve_round(bn::JunctionTree& jt, std::size_t e_node,
                   std::size_t e_card, std::size_t target,
                   std::size_t rounds) {
  double checksum = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    jt.calibrate_sorted({{e_node, r % e_card}});
    checksum += jt.posterior(target)[0];
  }
  return checksum;
}

/// Shared body of the recalibration scenarios: the same evidence stream
/// served by a full-recalibration tree and an incremental one; the
/// speedup counter is what the acceptance criterion reads.
void run_recalibration(benchmark::State& state, const bn::BayesianNetwork& net,
                       const char* label) {
  const std::size_t n = net.size();
  // Evidence on the deepest node with parents; query one of its parents
  // (same family clique). A query's dirty region is then one clique while
  // full recalibration re-derives every message pulled toward the target.
  std::size_t e_node = 0;
  for (std::size_t v = n; v-- > 0;) {
    if (!net.dag().parents(v).empty()) {
      e_node = v;
      break;
    }
  }
  const std::size_t target = net.dag().parents(e_node).front();
  const std::size_t e_card = net.variable(e_node).cardinality;
  constexpr std::size_t kRounds = 200;

  bn::JunctionTree full(net);
  full.set_incremental(false);
  full.warm();
  bn::JunctionTree inc(net);
  inc.warm();

  double full_ms = 0.0;
  double inc_ms = 0.0;
  std::size_t reps = 0;
  for (auto _ : state) {
    Stopwatch full_timer;
    const double a = serve_round(full, e_node, e_card, target, kRounds);
    full_ms += full_timer.millis();
    Stopwatch inc_timer;
    const double b = serve_round(inc, e_node, e_card, target, kRounds);
    inc_ms += inc_timer.millis();
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    // Both strategies must serve identical answers (asserted in tests).
    if (a != b) state.SkipWithError("incremental/full divergence");
    ++reps;
  }
  const double full_us = full_ms * 1000.0 / double(reps * kRounds);
  const double inc_us = inc_ms * 1000.0 / double(reps * kRounds);
  state.counters["full_us_per_query"] = full_us;
  state.counters["incremental_us_per_query"] = inc_us;
  state.counters["speedup"] = full_us / inc_us;
  // Which SIMD dispatch tier served this run (0 scalar / 1 avx2 /
  // 2 avx512) — baselines recorded at different tiers are not comparable,
  // so the guard in perf_smoke.sh reads this to pick its limits.
  state.counters["simd_tier"] =
      double(static_cast<int>(kertbn::simd::active_tier()));
  series().add_row({std::string(label) + "/full_us", double(n), full_us});
  series().add_row({std::string(label) + "/inc_us", double(n), inc_us});
  series().add_row(
      {std::string(label) + "/speedup", double(n), full_us / inc_us});
}

/// Scenario A: coarse-binned models (cards 2–3), the original tentpole
/// number. Inner runs are 2–9 elements, so this measures the planning and
/// walk overhead more than the vector width.
void BM_RecalibrationSpeedup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_recalibration(state, random_network(n, 7), "recalib");
}

/// Scenario A': fine-binned models (cards 8–11, ≤2 parents) — factor
/// tables with unit-stride runs long enough to fill 4/8-double vector
/// lanes, so products and column sums run vectorized on the SIMD tiers.
/// Every tier computes the same bits; only the time differs.
void BM_RecalibrationSpeedupWide(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  run_recalibration(state, random_network(n, 7, 8, 4, 2), "recalib_wide");
}

/// Published eDiaMoND snapshot for the serving scenarios.
core::SnapshotSlot& ediamond_slot() {
  static core::SnapshotSlot slot;
  if (!slot.has_snapshot()) {
    sim::SyntheticEnvironment env = sim::make_ediamond_environment();
    Rng rng = bench::data_rng(6, 0, 33);
    const bn::Dataset train = env.generate(300, rng);
    const core::DatasetDiscretizer disc(train, kBins);
    const auto kert = core::construct_kert_discrete(
        env.workflow(), env.sharing(), disc, disc.discretize(train));
    slot.publish(core::make_model_snapshot(1, 0.0, kert.net, disc));
  }
  return slot;
}

core::QueryBatch mixed_batch(std::size_t n_nodes, std::size_t size) {
  core::QueryBatch batch;
  const std::size_t d_node = n_nodes - 1;
  for (std::size_t i = 0; i < size; ++i) {
    core::Query q;
    switch (i % 4) {
      case 0:
        q.kind = core::QueryKind::kPosterior;
        q.target = i % d_node;
        q.evidence = {{d_node, i % kBins}};
        break;
      case 1:
        q.kind = core::QueryKind::kExceedance;
        q.target = d_node;
        q.evidence = {{i % d_node, i % kBins}};
        q.threshold = 1.0;
        break;
      case 2:
        q.kind = core::QueryKind::kEvidenceProbability;
        q.evidence = {{i % d_node, i % kBins}};
        break;
      default:
        q.kind = core::QueryKind::kWhatIf;
        q.target = d_node;
        q.evidence = {{i % d_node, (i + 1) % kBins}};
        break;
    }
    batch.push_back(std::move(q));
  }
  return batch;
}

/// Scenario B: batch throughput + p99 at growing pool sizes.
void BM_BatchThroughput(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  core::SnapshotSlot& slot = ediamond_slot();
  const std::size_t n_nodes = slot.acquire()->net.size();

  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  core::QueryEngine::Config cfg;
  cfg.slot = &slot;
  cfg.pool = pool ? &*pool : nullptr;
  core::QueryEngine engine(cfg);
  const core::QueryBatch batch = mixed_batch(n_nodes, 256);

  obs::set_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  engine.post(batch);  // warm the workers before timing

  double total_s = 0.0;
  std::size_t queries = 0;
  registry.reset();
  for (auto _ : state) {
    Stopwatch timer;
    const auto answers = engine.post(batch);
    total_s += timer.millis() / 1000.0;
    queries += answers.size();
  }
  const auto lat = registry.histogram("kert.query.latency_ns").stats();
  const double qps = double(queries) / total_s;
  const double p99_us = double(lat.quantile(0.99)) / 1000.0;
  state.counters["qps"] = qps;
  state.counters["p99_us"] = p99_us;
  series().add_row({std::string("batch/qps"), double(threads), qps});
  series().add_row({std::string("batch/p99_us"), double(threads), p99_us});
}

/// Scenario C: serving throughput while a ModelManager hot-swaps fresh
/// snapshots underneath the engine.
void BM_MixedServing(benchmark::State& state) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  core::ModelManager::Config cfg;
  cfg.schedule = sim::ModelSchedule{10.0, 12, 3};
  cfg.bins = kBins;
  cfg.publish_snapshots = true;
  core::ModelManager manager(env.workflow(), env.sharing(), cfg);

  Rng rng = bench::data_rng(6, 0, 44);
  std::vector<bn::Dataset> windows;
  constexpr std::size_t kRebuilds = 6;
  for (std::size_t i = 0; i < kRebuilds; ++i) {
    windows.push_back(env.generate(36, rng));
  }
  manager.reconstruct(120.0, windows[0]);

  core::QueryEngine::Config ecfg;
  ecfg.slot = &manager.snapshot_slot();
  core::QueryEngine engine(ecfg);
  const std::size_t n_nodes = manager.snapshot_slot().acquire()->net.size();
  const core::QueryBatch batch = mixed_batch(n_nodes, 64);

  double total_s = 0.0;
  std::size_t queries = 0;
  for (auto _ : state) {
    std::atomic<bool> done{false};
    std::thread publisher([&] {
      for (std::size_t i = 1; i < kRebuilds; ++i) {
        manager.reconstruct(120.0 * double(i + 1), windows[i]);
      }
      done.store(true);
    });
    Stopwatch timer;
    while (!done.load(std::memory_order_relaxed)) {
      queries += engine.post(batch).size();
    }
    total_s += timer.millis() / 1000.0;
    publisher.join();
  }
  state.counters["qps_under_reconstruction"] =
      double(queries) / total_s;
  state.counters["snapshot_versions_served"] =
      double(engine.last_snapshot_version());
  series().add_row({std::string("mixed/qps"), double(kRebuilds),
                    double(queries) / total_s});
}

/// The legacy Factor fold of every family of \p net in node order, each
/// family copied entry by entry out of its CPT: how clique potentials were
/// built before they moved onto the flat kernels. On a one-clique network
/// (the eDiaMoND KERT-BN) it is the clique's whole potential.
bn::Factor legacy_family_fold(const bn::BayesianNetwork& net) {
  bn::Factor base = bn::Factor::unit();
  for (std::size_t v = 0; v < net.size(); ++v) {
    const auto& cpt = static_cast<const bn::TabularCpd&>(net.cpd(v));
    const auto pars = net.dag().parents(v);
    std::vector<std::size_t> scope(pars.begin(), pars.end());
    scope.push_back(v);
    std::vector<std::size_t> cards = cpt.parent_cardinalities();
    cards.push_back(cpt.child_cardinality());
    std::vector<double> values;
    values.reserve(cpt.config_count() * cpt.child_cardinality());
    for (std::size_t cfg = 0; cfg < cpt.config_count(); ++cfg) {
      for (std::size_t s = 0; s < cpt.child_cardinality(); ++s) {
        values.push_back(cpt.probability(cfg, s));
      }
    }
    base = base.product(
        bn::Factor(std::move(scope), std::move(cards), std::move(values)));
  }
  return base;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Scenario D: publishing a rebuilt eDiaMoND model — make_model_snapshot
/// copies the model, builds and warms its junction tree and reads the prior
/// moments — on a 36-row window at 3 and 4 bins (range(0)). `snapshot_us`
/// depends on the host; `snapshot_to_legacy_fold` divides it by the legacy
/// Factor fold of the same families, timed alternately in the same process,
/// and is what perf_smoke.sh guards. A snapshot build that still ran that
/// fold would read above 1.
void BM_SnapshotBuild(benchmark::State& state) {
  const auto bins = static_cast<std::size_t>(state.range(0));
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  Rng rng = bench::data_rng(6, 0, 55);
  const bn::Dataset window = env.generate(36, rng);
  const core::DatasetDiscretizer disc(window, bins);
  const auto kert = core::construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(window));

  constexpr std::size_t kReps = 41;
  std::vector<double> snapshot_us;
  std::vector<double> fold_us;
  for (auto _ : state) {
    for (std::size_t rep = 0; rep < kReps; ++rep) {
      Stopwatch snapshot_timer;
      auto snapshot = core::make_model_snapshot(1, 0.0, kert.net, disc);
      snapshot_us.push_back(snapshot_timer.millis() * 1000.0);
      Stopwatch fold_timer;
      const bn::Factor fold = legacy_family_fold(kert.net);
      fold_us.push_back(fold_timer.millis() * 1000.0);
      benchmark::DoNotOptimize(snapshot.get());
      benchmark::DoNotOptimize(fold.values().data());
    }
  }
  const double snap = median(snapshot_us);
  const double fold = median(fold_us);
  state.counters["snapshot_us"] = snap;
  state.counters["legacy_fold_us"] = fold;
  state.counters["snapshot_to_legacy_fold"] = snap / fold;
  series().add_row({std::string("snapshot/us"), double(bins), snap});
  series().add_row(
      {std::string("snapshot/to_legacy_fold"), double(bins), snap / fold});
}

}  // namespace

BENCHMARK(BM_RecalibrationSpeedup)
    ->Arg(24)->Arg(32)
    ->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecalibrationSpeedupWide)
    ->Arg(12)->Arg(16)
    ->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchThroughput)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MixedServing)
    ->Iterations(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotBuild)
    ->Arg(3)->Arg(4)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
