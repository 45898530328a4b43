#include "kert/serialize.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "bn/discrete_inference.hpp"
#include "common/rng.hpp"
#include "kert/kert_builder.hpp"
#include "kert/model_manager.hpp"
#include "sosim/synthetic.hpp"
#include "support/fnv1a.hpp"

namespace kertbn::core {
namespace {

/// Replaces the whole line that starts with \p prefix (e.g. "leak ").
std::string replace_line(std::string text, const std::string& prefix,
                         const std::string& replacement) {
  const std::size_t at = text.find("\n" + prefix);
  EXPECT_NE(at, std::string::npos) << "no line starts with: " << prefix;
  const std::size_t end = text.find('\n', at + 1);
  return text.replace(at + 1, end - at - 1, replacement);
}

std::string valid_continuous_text(std::uint64_t seed) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(seed);
  const bn::Dataset train = env.generate(150, rng);
  const KertResult built =
      construct_kert_continuous(env.workflow(), env.sharing(), train);
  return save_to_string(env.workflow(), env.sharing(), built.net);
}

TEST(ModelSerialize, ContinuousRoundTripPreservesLikelihoods) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(1);
  const bn::Dataset train = env.generate(200, rng);
  const KertResult original =
      construct_kert_continuous(env.workflow(), env.sharing(), train);

  const std::string text =
      save_to_string(env.workflow(), env.sharing(), original.net);
  const SavedModel loaded = load_from_string(text);

  EXPECT_EQ(loaded.bins, 0u);
  EXPECT_EQ(loaded.net.size(), original.net.size());
  const bn::Dataset test = env.generate(100, rng);
  EXPECT_DOUBLE_EQ(loaded.net.log_likelihood(test),
                   original.net.log_likelihood(test));
  // The response CPD was rebuilt from knowledge, with the same leak.
  std::vector<double> x(6);
  for (int s = 0; s < 6; ++s) x[s] = test.value(0, s);
  EXPECT_DOUBLE_EQ(loaded.net.cpd(6).mean(x), original.net.cpd(6).mean(x));
}

TEST(ModelSerialize, ContinuousRoundTripPreservesStructure) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(2);
  const bn::Dataset train = env.generate(150, rng);
  const KertResult original =
      construct_kert_continuous(env.workflow(), env.sharing(), train);
  const SavedModel loaded = load_from_string(
      save_to_string(env.workflow(), env.sharing(), original.net));
  EXPECT_TRUE(loaded.net.dag().same_structure(original.net.dag()));
  EXPECT_EQ(loaded.workflow.service_names(),
            env.workflow().service_names());
  EXPECT_EQ(loaded.sharing.groups.size(), env.sharing().groups.size());
}

TEST(ModelSerialize, DiscreteRoundTripPreservesPosteriors) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(3);
  const bn::Dataset train = env.generate(500, rng);
  const DatasetDiscretizer disc(train, 3);
  const KertResult original = construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(train));

  std::ostringstream out;
  save_kert_discrete(out, env.workflow(), env.sharing(), disc, 0.02,
                     original.net);
  std::istringstream in(out.str());
  const SavedModel loaded = load_kert_model(in);

  EXPECT_EQ(loaded.bins, 3u);
  ASSERT_TRUE(loaded.discretizer.has_value());
  EXPECT_DOUBLE_EQ(loaded.leak, 0.02);

  // Discretizer round-trips exactly.
  for (std::size_t c = 0; c < disc.columns(); ++c) {
    for (double v : {0.05, 0.3, 0.9, 2.0}) {
      EXPECT_EQ(loaded.discretizer->column(c).bin_of(v),
                disc.column(c).bin_of(v));
    }
  }

  // Posterior queries agree exactly.
  const bn::VariableElimination ve_orig(original.net);
  const bn::VariableElimination ve_load(loaded.net);
  const bn::DiscreteEvidence evidence{{6, 2}};
  for (std::size_t v = 0; v < 6; ++v) {
    const auto a = ve_orig.posterior(v, evidence);
    const auto b = ve_load.posterior(v, evidence);
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_DOUBLE_EQ(a[s], b[s]);
    }
  }
}

TEST(ModelSerialize, ResourceNodeModelRoundTrips) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(4);
  const bn::Dataset train = env.generate_with_resources(200, rng);
  const KertResult original =
      construct_kert_with_resources(env.workflow(), env.sharing(), train);

  const SavedModel loaded = load_from_string(
      save_to_string(env.workflow(), env.sharing(), original.net));
  EXPECT_EQ(loaded.net.size(), original.net.size());
  EXPECT_TRUE(loaded.net.dag().same_structure(original.net.dag()));
  // Resource node names survive.
  EXPECT_EQ(loaded.net.variable(6).name, env.sharing().groups[0].name);
  const bn::Dataset test = env.generate_with_resources(50, rng);
  EXPECT_DOUBLE_EQ(loaded.net.log_likelihood(test),
                   original.net.log_likelihood(test));
}

TEST(ModelSerialize, RejectsGarbage) {
  EXPECT_DEATH(load_from_string("not-a-model 1"), "precondition");
}

TEST(ModelSerialize, MinimumBinsDiscreteRoundTrips) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(5);
  const bn::Dataset train = env.generate(300, rng);
  const DatasetDiscretizer disc(train, 2);  // The smallest legal bin count.
  const KertResult original = construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(train));

  std::ostringstream out;
  save_kert_discrete(out, env.workflow(), env.sharing(), disc, 0.02,
                     original.net);
  std::istringstream in(out.str());
  const SavedModel loaded = load_kert_model(in);
  EXPECT_EQ(loaded.bins, 2u);
  ASSERT_TRUE(loaded.discretizer.has_value());
  for (std::size_t c = 0; c < disc.columns(); ++c) {
    for (double v : {0.01, 0.2, 0.5, 1.5}) {
      EXPECT_EQ(loaded.discretizer->column(c).bin_of(v),
                disc.column(c).bin_of(v));
    }
  }
  const bn::VariableElimination ve_orig(original.net);
  const bn::VariableElimination ve_load(loaded.net);
  const auto a = ve_orig.posterior(0, bn::DiscreteEvidence{{6, 1}});
  const auto b = ve_load.posterior(0, bn::DiscreteEvidence{{6, 1}});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) EXPECT_DOUBLE_EQ(a[s], b[s]);
}

TEST(ModelSerialize, TinyPositiveLeakRoundTripsExactly) {
  const std::string tweaked =
      replace_line(valid_continuous_text(6), "leak ", "leak 1e-300");
  const LoadResult result = try_load_from_string(tweaked);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result->leak, 1e-300);  // Exact, not approximate.
}

TEST(ModelSerialize, ZeroLeakContinuousIsRejectedNotAborted) {
  // A zero leak would make the deterministic response CPD's density
  // degenerate; the fallible loader must refuse the file gracefully.
  const std::string tweaked =
      replace_line(valid_continuous_text(7), "leak ", "leak 0");
  const LoadResult result = try_load_from_string(tweaked);
  EXPECT_FALSE(result.has_value());
  EXPECT_FALSE(result.error().message.empty());
}

TEST(ModelSerialize, SeventeenDigitDoublesSurviveARealFile) {
  const std::string text = valid_continuous_text(8);
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) / "kertbn_serialize_rt.model";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << text;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const LoadResult loaded = try_load_kert_model(in);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  // Re-serializing the file-loaded model reproduces the original bytes:
  // every double survived the disk round-trip at 17 significant digits.
  EXPECT_EQ(save_to_string(loaded->workflow, loaded->sharing, loaded->net),
            text);
  std::filesystem::remove(path);
}

TEST(ModelSerialize, TryLoadReportsErrorsWithoutAborting) {
  // Bad magic.
  EXPECT_FALSE(try_load_from_string("not-a-model 1").has_value());
  // Empty input.
  EXPECT_FALSE(try_load_from_string("").has_value());

  const std::string text = valid_continuous_text(9);
  // Truncation anywhere must fail cleanly, never crash.
  for (const double frac : {0.25, 0.5, 0.9}) {
    const auto cut = static_cast<std::size_t>(double(text.size()) * frac);
    const LoadResult result = try_load_from_string(text.substr(0, cut));
    EXPECT_FALSE(result.has_value()) << "truncated at " << cut;
    EXPECT_FALSE(result.error().message.empty());
  }
  // Inconsistent counts: claim one more CPD than the file carries.
  EXPECT_FALSE(
      try_load_from_string(replace_line(text, "cpds ", "cpds 7"))
          .has_value());
  // An unknown CPD kind.
  std::string bad_kind = text;
  const std::size_t at = bad_kind.find("lingauss");
  ASSERT_NE(at, std::string::npos);
  bad_kind.replace(at, 8, "wibbleee");
  EXPECT_FALSE(try_load_from_string(bad_kind).has_value());
  // A repeated service-name index ("name 0" where "name 1" belongs) would
  // leave a service unnamed.
  const LoadResult repeated =
      try_load_from_string(replace_line(text, "name 1 ", "name 0 svc"));
  ASSERT_FALSE(repeated.has_value());
  EXPECT_EQ(repeated.error().message, "service name index repeated");
  // A sharing group naming service 99 of 6.
  const LoadResult unknown =
      try_load_from_string(replace_line(text, "group ", "group g 2 0 99"));
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().message,
            "sharing group names an unknown service");
  // D's parents must be the services in order: its function indexes them.
  std::string moved_edge = text;
  const std::size_t edge = moved_edge.find("\nedge 0 6\n");
  ASSERT_NE(edge, std::string::npos);
  moved_edge.replace(edge, 10, "\nedge 0 5\n");
  EXPECT_FALSE(try_load_from_string(moved_edge).has_value());
  // Tree lines the workflow reader must refuse by value, never throw on or
  // recurse into without bound: a class count far beyond the entries
  // present, nesting a million deep, and an index that is not a count.
  std::string deep = "tree ";
  for (int i = 0; i < 1000000; ++i) deep += "(seq ";
  const std::pair<std::string, std::string> trees[] = {
      {"tree (dchoice 1000000000000000 1 1 1 (act 0))", "expected token"},
      {deep, "tree nested too deeply"},
      {"tree (act inf)", "expected count, got 'inf'"}};
  for (const auto& [tree, reason] : trees) {
    const LoadResult bad_tree =
        try_load_from_string(replace_line(text, "tree ", tree));
    ASSERT_FALSE(bad_tree.has_value()) << reason;
    EXPECT_NE(bad_tree.error().message.find("workflow tree: " + reason),
              std::string::npos)
        << bad_tree.error().message;
  }
  // The original still loads — the mutations above were the problem.
  EXPECT_TRUE(try_load_from_string(text).has_value());
}

// The model text is a durable format: checkpoints carry it and a restarted
// server parses it. These hashes pin the bytes ModelManager exports for
// eDiaMoND models (continuous, 3 and 4 bins) over several windows, so a
// rewrite of the writer must reproduce every byte.
TEST(ModelSerialize, ExportedModelTextIsPinned) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  const std::size_t bin_counts[] = {0, 3, 4};
  const std::uint64_t expected[] = {
      0x2bc9d619ca6ef5b3ull, 0x28f3f1fcddb84f6full, 0x412bb919cecdc951ull};
  for (std::size_t k = 0; k < 3; ++k) {
    std::uint64_t h = test_support::kFnvOffset;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ModelManager::Config config;
      config.bins = bin_counts[k];
      ModelManager manager(env.workflow(), env.sharing(), config);
      kertbn::Rng rng(seed);
      manager.reconstruct(60.0, env.generate(60, rng));
      const std::string text = manager.export_model_text();
      ASSERT_FALSE(text.empty());
      h = test_support::fnv1a(text, h);
    }
    EXPECT_EQ(h, expected[k])
        << "bins " << bin_counts[k] << std::hex << " hash 0x" << h;
  }
}

}  // namespace
}  // namespace kertbn::core
