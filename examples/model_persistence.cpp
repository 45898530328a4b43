/// \file model_persistence.cpp
/// Model lifecycle: construct a KERT-BN on the management server, persist
/// it, reload it elsewhere (e.g. in an autonomic component), verify it
/// answers queries identically, and watch a drift detector decide when the
/// shipped model has gone stale and must be replaced. Exits nonzero if
/// drift never confirms within the shifted intervals.

#include <cstdio>
#include <vector>

#include "common/stats.hpp"
#include "kert/kert_builder.hpp"
#include "kert/serialize.hpp"
#include "obs/quality/drift.hpp"
#include "sosim/synthetic.hpp"
#include "workflow/ediamond.hpp"

int main() {
  using namespace kertbn;
  using S = wf::EdiamondServices;

  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  Rng rng(55);
  const bn::Dataset train = env.generate(400, rng);
  const core::KertResult built =
      core::construct_kert_continuous(env.workflow(), env.sharing(), train);

  // Persist and reload.
  const std::string text =
      core::save_to_string(env.workflow(), env.sharing(), built.net);
  std::printf("serialized model: %zu bytes\n", text.size());
  const core::SavedModel loaded = core::load_from_string(text);

  const bn::Dataset probe = env.generate(100, rng);
  std::printf("log-likelihood original %.4f vs loaded %.4f (must match)\n\n",
              built.net.log_likelihood(probe),
              loaded.net.log_likelihood(probe));

  // The shipped model serves predictions; a drift detector watches its
  // per-interval score, standardized against the nominal intervals.
  auto interval_score = [&](sim::SyntheticEnvironment& e) {
    const bn::Dataset interval = e.generate(20, rng);
    return loaded.net.log10_likelihood(interval) / 20.0;
  };
  std::vector<double> nominal(8);
  for (double& score : nominal) score = interval_score(env);
  const double nominal_mean = mean(nominal);
  const double nominal_sd = stddev(nominal);

  quality::DriftDetector detector;
  auto observe = [&](std::size_t i, double score) {
    const double z = (score - nominal_mean) / nominal_sd;
    const quality::DriftState state = detector.add(z);
    std::printf("  interval %2zu: score %+.3f  z %+7.2f  drift=%s\n", i, score,
                z, quality::to_string(state));
    return state;
  };

  std::printf("monitoring intervals (nominal regime):\n");
  for (std::size_t i = 0; i < nominal.size(); ++i) observe(i, nominal[i]);

  std::printf("\n*** remote locator degrades 1.8x ***\n");
  sim::SyntheticEnvironment shifted = env;
  shifted.accelerate_service(S::kImageLocatorRemote, 1.8);
  for (std::size_t i = 8; i < 24; ++i) {
    if (observe(i, interval_score(shifted)) !=
        quality::DriftState::kConfirmed) {
      continue;
    }
    std::printf("\ndrift confirmed -> reconstructing from fresh window\n");
    const bn::Dataset fresh = shifted.generate(400, rng);
    const core::KertResult rebuilt = core::construct_kert_continuous(
        shifted.workflow(), shifted.sharing(), fresh);
    const bn::Dataset check = shifted.generate(100, rng);
    std::printf("stale model fit: %.2f; rebuilt model fit: %.2f "
                "(log10/row)\n",
                loaded.net.log10_likelihood(check) / 100.0,
                rebuilt.net.log10_likelihood(check) / 100.0);
    return 0;
  }
  std::printf("\nerror: drift never confirmed\n");
  return 1;
}
