#include "workflow/workflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace kertbn::wf {
namespace {

bool has_edge(const std::vector<std::pair<std::size_t, std::size_t>>& edges,
              std::size_t a, std::size_t b) {
  return std::find(edges.begin(), edges.end(), std::make_pair(a, b)) !=
         edges.end();
}

TEST(Workflow, SequenceReducesToSum) {
  Workflow w({"s0", "s1", "s2"},
             Node::sequence({Node::activity(0), Node::activity(1),
                             Node::activity(2)}));
  const auto expr = w.response_time_expr();
  const double times[] = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(expr->evaluate(times), 6.0);
  EXPECT_TRUE(expr->is_linear());
}

// The reduction is computed once, at construction: every call returns the
// same tree, so a reference taken from a call outlives the statement.
TEST(Workflow, ResponseTimeExprIsReducedOnceAndOutlivesTheCall) {
  Workflow w({"s0", "s1", "s2"},
             Node::sequence({Node::activity(0),
                             Node::parallel({Node::activity(1),
                                             Node::activity(2)})}));
  EXPECT_EQ(w.response_time_expr().get(), w.response_time_expr().get());
  const Workflow copy = w;
  EXPECT_EQ(copy.response_time_expr().get(), w.response_time_expr().get());
  const Expr& e = *w.response_time_expr();
  const double times[] = {1.0, 4.0, 2.5};
  EXPECT_DOUBLE_EQ(e.evaluate(times), 5.0);
}

TEST(Workflow, ParallelReducesToMax) {
  Workflow w({"s0", "s1"},
             Node::parallel({Node::activity(0), Node::activity(1)}));
  const auto expr = w.response_time_expr();
  const double times[] = {2.0, 5.0};
  EXPECT_DOUBLE_EQ(expr->evaluate(times), 5.0);
  EXPECT_FALSE(expr->is_linear());
}

TEST(Workflow, ChoiceReducesToBlend) {
  Workflow w({"s0", "s1"},
             Node::choice({Node::activity(0), Node::activity(1)},
                          {0.3, 0.7}));
  const auto expr = w.response_time_expr();
  const double times[] = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(expr->evaluate(times), 3.0 + 14.0);
}

TEST(Workflow, LoopScalesByExpectedIterations) {
  // repeat probability 0.5 -> expected iterations 2.
  Workflow w({"s0"}, Node::loop(Node::activity(0), 0.5));
  const auto expr = w.response_time_expr();
  const double times[] = {3.0};
  EXPECT_DOUBLE_EQ(expr->evaluate(times), 6.0);
}

TEST(Workflow, ZeroRepeatLoopCollapses) {
  const auto body = Node::activity(0);
  EXPECT_EQ(Node::loop(body, 0.0), body);
}

TEST(Workflow, NestedCompositionEvaluates) {
  // seq(a, par(seq(b, c), d)).
  Workflow w({"a", "b", "c", "d"},
             Node::sequence(
                 {Node::activity(0),
                  Node::parallel(
                      {Node::sequence({Node::activity(1), Node::activity(2)}),
                       Node::activity(3)})}));
  const auto expr = w.response_time_expr();
  const double fast_d[] = {1.0, 1.0, 1.0, 0.5};
  EXPECT_DOUBLE_EQ(expr->evaluate(fast_d), 1.0 + 2.0);
  const double slow_d[] = {1.0, 1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(expr->evaluate(slow_d), 1.0 + 4.0);
}

TEST(Workflow, CountExprSumsAllServices) {
  Workflow w({"a", "b", "c"},
             Node::sequence({Node::activity(0),
                             Node::parallel({Node::activity(1),
                                             Node::activity(2)})}));
  const auto expr = w.count_expr();
  const double counts[] = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(expr->evaluate(counts), 7.0);
  EXPECT_TRUE(expr->is_linear());
}

TEST(Workflow, SequenceUpstreamEdges) {
  Workflow w({"a", "b", "c"},
             Node::sequence({Node::activity(0), Node::activity(1),
                             Node::activity(2)}));
  const auto edges = w.upstream_edges();
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_TRUE(has_edge(edges, 0, 1));
  EXPECT_TRUE(has_edge(edges, 1, 2));
}

TEST(Workflow, FanOutEdgesFromSequenceIntoParallel) {
  Workflow w({"a", "b", "c"},
             Node::sequence({Node::activity(0),
                             Node::parallel({Node::activity(1),
                                             Node::activity(2)})}));
  const auto edges = w.upstream_edges();
  EXPECT_TRUE(has_edge(edges, 0, 1));
  EXPECT_TRUE(has_edge(edges, 0, 2));
  EXPECT_FALSE(has_edge(edges, 1, 2));
}

TEST(Workflow, FanInEdgesFromParallelIntoSequence) {
  Workflow w({"a", "b", "c"},
             Node::sequence({Node::parallel({Node::activity(0),
                                             Node::activity(1)}),
                             Node::activity(2)}));
  const auto edges = w.upstream_edges();
  EXPECT_TRUE(has_edge(edges, 0, 2));
  EXPECT_TRUE(has_edge(edges, 1, 2));
}

TEST(Workflow, EntryAndExitServices) {
  Workflow w({"a", "b", "c", "d"},
             Node::sequence(
                 {Node::activity(0),
                  Node::parallel({Node::activity(1), Node::activity(2)}),
                  Node::activity(3)}));
  EXPECT_EQ(w.entry_services(), (std::vector<std::size_t>{0}));
  EXPECT_EQ(w.exit_services(), (std::vector<std::size_t>{3}));
}

TEST(Workflow, ChoiceBranchesBothGetUpstreamEdges) {
  Workflow w({"a", "b", "c"},
             Node::sequence({Node::activity(0),
                             Node::choice({Node::activity(1),
                                           Node::activity(2)},
                                          {0.5, 0.5})}));
  const auto edges = w.upstream_edges();
  EXPECT_TRUE(has_edge(edges, 0, 1));
  EXPECT_TRUE(has_edge(edges, 0, 2));
}

TEST(Workflow, DescribeIncludesFormula) {
  Workflow w({"a", "b"},
             Node::sequence({Node::activity(0), Node::activity(1)}));
  const std::string s = w.describe();
  EXPECT_NE(s.find("a + b"), std::string::npos);
  EXPECT_NE(s.find("a->b"), std::string::npos);
}

TEST(Workflow, RejectsOutOfRangeService) {
  EXPECT_DEATH(Workflow({"only"}, Node::activity(5)), "precondition");
}

TEST(Workflow, MapReducesToExpectedInverseFanoutScale) {
  // k = 2 with prob 0.5, k = 4 with prob 0.5: E[1/k] = 0.5/2 + 0.5/4.
  Workflow w({"s0", "s1"},
             Node::map(Node::sequence({Node::activity(0), Node::activity(1)}),
                       2, {0.5, 0.0, 0.5}));
  const auto expr = w.response_time_expr();
  const double times[] = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(expr->evaluate(times), (0.25 + 0.125) * 4.0);
}

TEST(Workflow, MapFanoutMoments) {
  const auto m = Node::map(Node::activity(0), 2, {1.0, 1.0});
  EXPECT_EQ(m->kind(), NodeKind::kMap);
  EXPECT_EQ(m->map_k_min(), 2u);
  EXPECT_DOUBLE_EQ(m->expected_instances(), 2.5);
  EXPECT_DOUBLE_EQ(m->expected_inverse_instances(), 0.5 / 2.0 + 0.5 / 3.0);
}

TEST(Workflow, DegenerateSingleInstanceMapCollapses) {
  const auto body = Node::activity(0);
  EXPECT_EQ(Node::map(body, 1, {3.0}), body);
}

TEST(Workflow, MapIsTransparentToUpstreamEdges) {
  // seq(a, map(par(b, c)), d): the map body's entries/exits are the map's.
  Workflow w({"a", "b", "c", "d"},
             Node::sequence(
                 {Node::activity(0),
                  Node::map(Node::parallel({Node::activity(1),
                                            Node::activity(2)}),
                            2, {1.0}),
                  Node::activity(3)}));
  const auto edges = w.upstream_edges();
  EXPECT_TRUE(has_edge(edges, 0, 1));
  EXPECT_TRUE(has_edge(edges, 0, 2));
  EXPECT_TRUE(has_edge(edges, 1, 3));
  EXPECT_TRUE(has_edge(edges, 2, 3));
}

TEST(Workflow, MapRejectsDegenerateWeights) {
  EXPECT_DEATH(Node::map(Node::activity(0), 0, {1.0}), "precondition");
  EXPECT_DEATH(Node::map(Node::activity(0), 2, {}), "precondition");
  EXPECT_DEATH(Node::map(Node::activity(0), 2, {0.0, 0.0}), "precondition");
  EXPECT_DEATH(Node::map(Node::activity(0), 2, {-1.0, 2.0}), "precondition");
}

TEST(Workflow, DataChoiceReducesToMarginalBlend) {
  // Classes 0.4/0.6; rows (0.9, 0.1) and (0.2, 0.8):
  // q = (0.4*0.9 + 0.6*0.2, 0.4*0.1 + 0.6*0.8) = (0.48, 0.52).
  Workflow w({"s0", "s1"},
             Node::data_choice({Node::activity(0), Node::activity(1)},
                               {0.4, 0.6}, {{0.9, 0.1}, {0.2, 0.8}}));
  const auto expr = w.response_time_expr();
  const double times[] = {10.0, 20.0};
  EXPECT_NEAR(expr->evaluate(times), 0.48 * 10.0 + 0.52 * 20.0, 1e-12);
}

TEST(Workflow, DataChoiceMarginalAccessors) {
  const auto n = Node::data_choice({Node::activity(0), Node::activity(1)},
                                   {0.5, 0.5}, {{1.0, 0.0}, {0.0, 1.0}});
  ASSERT_EQ(n->kind(), NodeKind::kDataChoice);
  const auto q = n->marginal_branch_probs();
  EXPECT_DOUBLE_EQ(q[0], 0.5);
  EXPECT_DOUBLE_EQ(q[1], 0.5);
}

TEST(Workflow, SingleClassDataChoiceCollapsesToChoice) {
  const auto n = Node::data_choice({Node::activity(0), Node::activity(1)},
                                   {1.0}, {{0.3, 0.7}});
  ASSERT_EQ(n->kind(), NodeKind::kChoice);
  EXPECT_DOUBLE_EQ(n->choice_probs()[1], 0.7);
}

TEST(Workflow, DataChoiceBranchesAllGetUpstreamEdges) {
  Workflow w({"a", "b", "c"},
             Node::sequence(
                 {Node::activity(0),
                  Node::data_choice({Node::activity(1), Node::activity(2)},
                                    {0.5, 0.5},
                                    {{0.9, 0.1}, {0.1, 0.9}})}));
  const auto edges = w.upstream_edges();
  EXPECT_TRUE(has_edge(edges, 0, 1));
  EXPECT_TRUE(has_edge(edges, 0, 2));
}

TEST(Workflow, DataChoiceRejectsMalformedRows) {
  EXPECT_DEATH(Node::data_choice({Node::activity(0), Node::activity(1)},
                                 {0.5, 0.5}, {{0.3, 0.7}}),
               "precondition");  // one row missing
  EXPECT_DEATH(Node::data_choice({Node::activity(0), Node::activity(1)},
                                 {0.5, 0.5}, {{0.3, 0.6}, {0.5, 0.5}}),
               "precondition");  // row does not sum to 1
  EXPECT_DEATH(Node::data_choice({Node::activity(0), Node::activity(1)},
                                 {0.5, 0.4}, {{0.3, 0.7}, {0.5, 0.5}}),
               "precondition");  // classes do not sum to 1
}

}  // namespace
}  // namespace kertbn::wf
