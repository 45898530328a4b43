/// Golden-model regression tests: the eDiaMoND KERT-BN (continuous and
/// discrete) and the NRT-BN baseline, built from fixed seeds, must
/// serialize byte-for-byte to the checked-in golden files. Any change to
/// structure translation, parameter learning, the leak calibration, or the
/// serializer that alters a learned model shows up here as a diff.
///
/// To regenerate after an intentional change:
///   KERTBN_REGEN_GOLDEN=1 ./test_integration --gtest_filter='GoldenModels.*'
/// then commit the rewritten files under tests/integration/golden/.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "kert/kert_builder.hpp"
#include "kert/nrt_builder.hpp"
#include "kert/serialize.hpp"
#include "sosim/synthetic.hpp"

#ifndef KERTBN_GOLDEN_DIR
#error "KERTBN_GOLDEN_DIR must be defined by the build"
#endif

namespace kertbn::core {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(KERTBN_GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("KERTBN_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Compares \p actual against the golden file, or rewrites the file when
/// KERTBN_REGEN_GOLDEN is set.
void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run with KERTBN_REGEN_GOLDEN=1 to create it";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected != actual) {
    // Locate the first differing line for a readable failure.
    std::istringstream ea(expected), aa(actual);
    std::string el, al;
    std::size_t line = 0;
    while (true) {
      ++line;
      const bool more_e = static_cast<bool>(std::getline(ea, el));
      const bool more_a = static_cast<bool>(std::getline(aa, al));
      if (!more_e && !more_a) break;
      if (el != al || more_e != more_a) {
        FAIL() << name << " diverges from golden at line " << line
               << "\n  golden: " << (more_e ? el : "<eof>")
               << "\n  actual: " << (more_a ? al : "<eof>");
      }
    }
    FAIL() << name << " differs from golden (same lines, different bytes)";
  }
}

/// The fixed training window every golden model is learned from.
bn::Dataset ediamond_training_window(const sim::SyntheticEnvironment& env) {
  Rng rng(20070401);  // fixed: goldens are a function of this seed
  return env.generate(240, rng);
}

TEST(GoldenModels, EdiamondKertContinuous) {
  const sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  const bn::Dataset train = ediamond_training_window(env);
  const KertResult result =
      construct_kert_continuous(env.workflow(), env.sharing(), train);
  const std::string text =
      save_to_string(env.workflow(), env.sharing(), result.net);
  check_golden("ediamond_kert_continuous.golden", text);

  // The golden text is itself a valid model: load -> re-save is identity.
  const SavedModel loaded = load_from_string(text);
  EXPECT_EQ(save_to_string(loaded.workflow, loaded.sharing, loaded.net),
            text);
}

TEST(GoldenModels, EdiamondKertDiscrete) {
  const sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  const bn::Dataset train = ediamond_training_window(env);
  const DatasetDiscretizer disc(train, 3);
  const KertResult result = construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(train));
  std::ostringstream out;
  save_kert_discrete(out, env.workflow(), env.sharing(), disc, 0.02,
                     result.net);
  check_golden("ediamond_kert_discrete.golden", out.str());

  // Round trip: loading keeps every CPT row as written, so the loaded
  // tables are the built ones bit for bit and the re-save is the same text.
  std::istringstream in(out.str());
  const SavedModel loaded = load_kert_model(in);
  ASSERT_TRUE(loaded.discretizer.has_value());
  ASSERT_EQ(loaded.net.size(), result.net.size());
  for (std::size_t v = 0; v < result.net.size(); ++v) {
    const auto& a = static_cast<const bn::TabularCpd&>(result.net.cpd(v));
    const auto& b = static_cast<const bn::TabularCpd&>(loaded.net.cpd(v));
    ASSERT_EQ(a.config_count(), b.config_count());
    for (std::size_t cfg = 0; cfg < a.config_count(); ++cfg) {
      for (std::size_t s = 0; s < a.child_cardinality(); ++s) {
        EXPECT_EQ(a.probability(cfg, s), b.probability(cfg, s));
      }
    }
  }
  EXPECT_EQ(save_discrete_to_string(loaded.workflow, loaded.sharing,
                                    *loaded.discretizer, loaded.leak,
                                    loaded.net),
            out.str());
}

TEST(GoldenModels, EdiamondNrtBaseline) {
  const sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  const bn::Dataset train = ediamond_training_window(env);
  const DatasetDiscretizer disc(train, 3);
  const bn::Dataset discrete = disc.discretize(train);
  std::vector<bn::Variable> vars;
  for (std::size_t c = 0; c < discrete.cols(); ++c) {
    vars.push_back(bn::Variable::discrete(discrete.column_name(c), 3));
  }
  NrtOptions opts;
  opts.restarts = 4;
  Rng rng(5);  // fixed: the K2 orderings are part of the golden
  const NrtResult result = construct_nrt(discrete, vars, rng, opts);
  const std::string text = network_to_string(result.net);
  check_golden("ediamond_nrt.golden", text);

  // Generic network round-trip is exact.
  const bn::BayesianNetwork loaded = network_from_string(text);
  EXPECT_EQ(network_to_string(loaded), text);
}

}  // namespace
}  // namespace kertbn::core
