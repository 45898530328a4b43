#include "workflow/serialize.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "support/mutation.hpp"
#include "workflow/ediamond.hpp"
#include "workflow/generator.hpp"

namespace kertbn::wf {
namespace {

/// The construct mix that exercises the full algebra: all four paper
/// constructs plus map fan-outs and data-dependent choices.
GeneratorOptions full_algebra_options() {
  GeneratorOptions opts;
  opts.sequence_weight = 0.35;
  opts.parallel_weight = 0.20;
  opts.choice_weight = 0.15;
  opts.map_weight = 0.18;
  opts.data_choice_weight = 0.12;
  opts.loop_probability = 0.10;
  return opts;
}

/// The workflow FullAlgebraRoundTrip draws from \p seed (seeds
/// p * 1000 + i for p in 1..4 and i < 50), over 2..31 services.
Workflow full_algebra_workflow(std::uint64_t seed) {
  kertbn::Rng rng(seed);
  const std::size_t n = 2 + rng.uniform_index(30);
  return make_random_workflow(n, rng, full_algebra_options());
}

TEST(WorkflowSerialize, ActivityRoundTrip) {
  const auto node = Node::activity(7);
  const std::string text = node_to_text(*node);
  EXPECT_EQ(text, "(act 7)");
  const auto parsed = node_from_text(text);
  EXPECT_EQ(parsed->kind(), NodeKind::kActivity);
  EXPECT_EQ(parsed->service_index(), 7u);
}

TEST(WorkflowSerialize, EdiamondTreeRoundTrip) {
  const Workflow original = make_ediamond_workflow();
  const std::string text = node_to_text(*original.root());
  const auto parsed = node_from_text(text);
  const Workflow rebuilt(original.service_names(), parsed);
  EXPECT_EQ(rebuilt.response_time_expr()->to_string(),
            original.response_time_expr()->to_string());
  EXPECT_EQ(rebuilt.upstream_edges(), original.upstream_edges());
}

TEST(WorkflowSerialize, ChoiceAndLoopRoundTrip) {
  const auto node = Node::loop(
      Node::choice({Node::activity(0), Node::activity(1)}, {0.25, 0.75}),
      0.4);
  const auto parsed = node_from_text(node_to_text(*node));
  EXPECT_EQ(parsed->kind(), NodeKind::kLoop);
  EXPECT_DOUBLE_EQ(parsed->repeat_prob(), 0.4);
  const auto& choice = *parsed->children().front();
  EXPECT_EQ(choice.kind(), NodeKind::kChoice);
  EXPECT_DOUBLE_EQ(choice.choice_probs()[1], 0.75);
}

TEST(WorkflowSerialize, WholeWorkflowRoundTrip) {
  const Workflow original = make_ediamond_workflow();
  const Workflow rebuilt = workflow_from_text(workflow_to_text(original));
  EXPECT_EQ(rebuilt.service_names(), original.service_names());
  EXPECT_EQ(rebuilt.response_time_expr()->to_string(rebuilt.service_names()),
            original.response_time_expr()->to_string(
                original.service_names()));
}

class RandomWorkflowRoundTrip
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorkflowRoundTrip, ExprAndEdgesSurvive) {
  kertbn::Rng rng(GetParam());
  GeneratorOptions opts;
  opts.choice_weight = 0.3;
  opts.loop_probability = 0.2;
  const Workflow original = make_random_workflow(10, rng, opts);
  const Workflow rebuilt = workflow_from_text(workflow_to_text(original));
  EXPECT_EQ(rebuilt.response_time_expr()->to_string(),
            original.response_time_expr()->to_string());
  EXPECT_EQ(rebuilt.upstream_edges(), original.upstream_edges());
  // Probabilities survive with full precision: evaluation agrees exactly.
  std::vector<double> times(10);
  for (auto& t : times) t = rng.uniform(0.01, 1.0);
  EXPECT_DOUBLE_EQ(rebuilt.response_time_expr()->evaluate(times),
                   original.response_time_expr()->evaluate(times));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkflowRoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(WorkflowSerialize, MalformedInputAborts) {
  EXPECT_DEATH(node_from_text("(seq"), "precondition");
  EXPECT_DEATH(node_from_text("(bogus 1)"), "precondition");
  EXPECT_DEATH(node_from_text("(act 1) trailing"), "precondition");
}

TEST(WorkflowSerialize, MapRoundTrip) {
  const auto node = Node::map(
      Node::sequence({Node::activity(0), Node::activity(1)}), 2,
      {0.25, 0.5, 0.25});
  const auto parsed = node_from_text(node_to_text(*node));
  ASSERT_EQ(parsed->kind(), NodeKind::kMap);
  EXPECT_EQ(parsed->map_k_min(), 2u);
  ASSERT_EQ(parsed->map_k_weights().size(), 3u);
  EXPECT_DOUBLE_EQ(parsed->map_k_weights()[1], 0.5);
  EXPECT_DOUBLE_EQ(parsed->expected_inverse_instances(),
                   node->expected_inverse_instances());
}

TEST(WorkflowSerialize, DataChoiceRoundTrip) {
  const auto node = Node::data_choice(
      {Node::activity(0), Node::activity(1), Node::activity(2)},
      {0.2, 0.8}, {{0.5, 0.25, 0.25}, {0.1, 0.1, 0.8}});
  const auto parsed = node_from_text(node_to_text(*node));
  ASSERT_EQ(parsed->kind(), NodeKind::kDataChoice);
  ASSERT_EQ(parsed->class_probs().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->class_probs()[1], 0.8);
  EXPECT_DOUBLE_EQ(parsed->branch_probs()[1][2], 0.8);
  EXPECT_EQ(parsed->children().size(), 3u);
}

TEST(WorkflowSerialize, MalformedMapAndDataChoiceAbort) {
  EXPECT_DEATH(node_from_text("(map 0 1.0 (act 0))"), "precondition");
  EXPECT_DEATH(node_from_text("(map 2 (act 0))"), "precondition");
  EXPECT_DEATH(node_from_text("(map 2 0 0 (act 0))"), "precondition");
  EXPECT_DEATH(node_from_text("(dchoice 2 2 0.5 0.4 1 0 0 1 (act 0) (act 1))"),
               "precondition");
  EXPECT_DEATH(node_from_text("(dchoice 1 2 1 0.7 0.7 (act 0) (act 1))"),
               "precondition");
}

TEST(WorkflowSerialize, MalformedMapReportsErrorByValue) {
  std::string error;
  EXPECT_EQ(try_node_from_text("(map 2 0 0 (act 0))", &error), nullptr);
  EXPECT_NE(error.find("all zero"), std::string::npos);
}

/// Hostile trees are refused by value, never thrown on or recursed into
/// without bound. Counts are unsigned decimal tokens, and probabilities and
/// weights finite numbers of the durable text codec.
TEST(WorkflowSerialize, HostileTreesReportErrorsByValue) {
  std::string deep;
  for (int i = 0; i < 1000000; ++i) deep += "(seq ";
  const std::pair<std::string, std::string> cases[] = {
      // Class and branch counts far beyond the entries present.
      {"(dchoice 1000000000000000 1 1 1 (act 0))", "expected token"},
      {"(dchoice 1 1000000000000000 1 1 (act 0))", "expected token"},
      // Nesting far past kMaxTreeDepth.
      {deep, "nested too deeply"},
      // Tokens outside the codec's count and number language.
      {"(act inf)", "expected count, got 'inf'"},
      {"(act 1e400)", "expected count"},
      {"(act 0x10)", "expected count"},
      {"(act +1)", "expected count"},
      {"(act 1.0)", "expected count"},
      {"(map 2.0 1 (act 0))", "expected count"},
      {"(dchoice 2e0 2 0.5 0.5 1 0 0 1 (act 0) (act 1))", "expected count"},
      {"(loop nan (act 0))", "expected number, got 'nan'"},
      {"(loop 1e-400 (act 0))", "expected number"},
      {"(choice 0x1p-1 (act 0) 0.5 (act 1))", "expected number"},
      {"(map 2 inf (act 0))", "expected number"},
      // Finite weights whose sum is not: normalizing would zero them all.
      {"(map 2 1e308 1e308 (act 0))", "map k weights overflow"},
  };
  for (const auto& [text, reason] : cases) {
    std::string error;
    EXPECT_EQ(try_node_from_text(text, &error), nullptr) << reason;
    EXPECT_NE(error.find(reason), std::string::npos) << error;
  }
  // The depth bound itself: kMaxTreeDepth levels read, one more does not.
  // A one-child sequence is its child, so any depth of them is one leaf.
  auto nested = [](std::size_t levels) {
    std::string text;
    for (std::size_t i = 0; i + 1 < levels; ++i) text += "(seq ";
    text += "(act 0)";
    for (std::size_t i = 0; i + 1 < levels; ++i) text += ')';
    return text;
  };
  std::string error;
  const Node::Ptr deepest = try_node_from_text(nested(kMaxTreeDepth), &error);
  ASSERT_NE(deepest, nullptr) << error;
  EXPECT_EQ(deepest->kind(), NodeKind::kActivity);
  EXPECT_EQ(try_node_from_text(nested(kMaxTreeDepth + 1), &error), nullptr);
  EXPECT_NE(error.find("nested too deeply"), std::string::npos) << error;
}

/// Seeded damage to the text of the 200 full-algebra workflows:
/// truncations, byte flips, byte insertions and token deletions. Every
/// input gives an error by value or a tree, and every accepted tree
/// re-saves to a fixed point.
TEST(WorkflowSerialize, SeededMutationsGiveErrorsOrFixedPoints) {
  test_support::SplitMix64 rng(0xC0FFEE06);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  auto check = [&](const std::string& text) {
    std::string error;
    const Node::Ptr tree = try_node_from_text(text, &error);
    if (tree == nullptr) {
      EXPECT_FALSE(error.empty());
      ++refused;
      return;
    }
    ++accepted;
    const std::string once = node_to_text(*tree);
    const Node::Ptr again = try_node_from_text(once, &error);
    ASSERT_NE(again, nullptr) << error << "\n" << once;
    EXPECT_EQ(node_to_text(*again), once);
  };
  for (std::uint64_t p = 1; p <= 4; ++p) {
    for (std::uint64_t i = 0; i < 50; ++i) {
      const std::uint64_t seed = p * 1000 + i;
      SCOPED_TRACE("seed " + std::to_string(seed));
      const std::string text =
          node_to_text(*full_algebra_workflow(seed).root());
      for (int k = 0; k < 8; ++k) {
        check(text.substr(0, rng.below(text.size())));
      }
      for (int k = 0; k < 40; ++k) {
        std::string damaged = text;
        const std::size_t rounds = 1 + rng.below(3);
        for (std::size_t r = 0; r < rounds; ++r) {
          damaged = test_support::mutate(damaged, rng, "0123456789 .-+eE()");
        }
        check(damaged);
      }
    }
  }
  // Damage to a probability's trailing digits often leaves a tree; the
  // fixed-point check ran on each of those.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

/// Serialize/deserialize is the identity over 200 seeded random workflows
/// drawn from the full algebra. Round-tripped text must be a fixed point
/// and reductions must agree exactly.
class FullAlgebraRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FullAlgebraRoundTrip, TwoHundredSeededWorkflows) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const std::uint64_t seed = GetParam() * 1000 + i;
    kertbn::Rng rng(seed);
    const std::size_t n = 2 + rng.uniform_index(30);
    const Workflow original =
        make_random_workflow(n, rng, full_algebra_options());

    const std::string text = workflow_to_text(original);
    const Workflow rebuilt = workflow_from_text(text);
    ASSERT_EQ(workflow_to_text(rebuilt), text) << "seed " << seed;
    ASSERT_EQ(rebuilt.upstream_edges(), original.upstream_edges())
        << "seed " << seed;
    ASSERT_EQ(rebuilt.response_time_expr()->to_string(),
              original.response_time_expr()->to_string())
        << "seed " << seed;

    std::vector<double> times(n);
    for (auto& t : times) t = rng.uniform(0.01, 1.0);
    ASSERT_DOUBLE_EQ(rebuilt.response_time_expr()->evaluate(times),
                     original.response_time_expr()->evaluate(times))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullAlgebraRoundTrip,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace kertbn::wf
