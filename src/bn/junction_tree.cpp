#include "bn/junction_tree.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>

#include "bn/discrete_inference.hpp"
#include "common/contract.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace kertbn::bn {
namespace {

bool is_subset(const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
  // Both sorted.
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

void note_messages(std::size_t recomputed, std::size_t reused) {
  if (!obs::enabled()) return;
  static obs::Counter& rec = obs::MetricsRegistry::instance().counter(
      "kert.query.messages_recomputed");
  static obs::Counter& reu = obs::MetricsRegistry::instance().counter(
      "kert.query.messages_reused");
  if (recomputed) rec.add(recomputed);
  if (reused) reu.add(reused);
}

}  // namespace

JunctionTree::JunctionTree(const BayesianNetwork& net) : net_(net) {
  KERTBN_EXPECTS(net.is_complete());
  for (std::size_t v = 0; v < net.size(); ++v) {
    KERTBN_EXPECTS(net.variable(v).is_discrete());
    KERTBN_EXPECTS(net.cpd(v).kind() == CpdKind::kTabular);
  }
  KERTBN_SPAN_VAR(span, "jt.build");
  build_structure();
  span.tag("cliques", static_cast<std::uint64_t>(cliques_.size()));
  span.tag("max_clique", static_cast<std::uint64_t>(max_clique_size()));
}

void JunctionTree::build_structure() {
  const std::size_t n = net_.size();

  // Moral graph adjacency.
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  auto connect = [&](std::size_t a, std::size_t b) {
    if (a != b) {
      adj[a][b] = true;
      adj[b][a] = true;
    }
  };
  for (std::size_t v = 0; v < n; ++v) {
    const auto pars = net_.dag().parents(v);
    for (std::size_t p : pars) connect(p, v);
    for (std::size_t i = 0; i < pars.size(); ++i) {
      for (std::size_t j = i + 1; j < pars.size(); ++j) {
        connect(pars[i], pars[j]);
      }
    }
  }

  // Min-fill elimination producing candidate cliques.
  std::vector<bool> eliminated(n, false);
  std::vector<std::vector<std::size_t>> candidates;
  for (std::size_t round = 0; round < n; ++round) {
    // Pick the remaining node whose elimination adds fewest fill edges.
    std::size_t best = n;
    std::size_t best_fill = static_cast<std::size_t>(-1);
    for (std::size_t v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      std::vector<std::size_t> nbrs;
      for (std::size_t u = 0; u < n; ++u) {
        if (!eliminated[u] && adj[v][u]) nbrs.push_back(u);
      }
      std::size_t fill = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
          if (!adj[nbrs[i]][nbrs[j]]) ++fill;
        }
      }
      if (fill < best_fill) {
        best_fill = fill;
        best = v;
      }
    }
    KERTBN_ASSERT(best < n);

    std::vector<std::size_t> clique{best};
    for (std::size_t u = 0; u < n; ++u) {
      if (!eliminated[u] && adj[best][u]) clique.push_back(u);
    }
    std::sort(clique.begin(), clique.end());
    candidates.push_back(std::move(clique));

    // Fill in, then eliminate.
    const auto& cl = candidates.back();
    for (std::size_t i = 0; i < cl.size(); ++i) {
      for (std::size_t j = i + 1; j < cl.size(); ++j) {
        connect(cl[i], cl[j]);
      }
    }
    eliminated[best] = true;
  }

  // Keep only maximal cliques.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    bool maximal = true;
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (i == j) continue;
      if (candidates[i].size() < candidates[j].size() &&
          is_subset(candidates[i], candidates[j])) {
        maximal = false;
        break;
      }
      if (i > j && candidates[i] == candidates[j]) {
        maximal = false;  // duplicate: keep the first copy only
        break;
      }
    }
    if (maximal) cliques_.push_back(candidates[i]);
  }

  // Maximum-weight spanning forest over separator sizes (Kruskal).
  struct Candidate {
    std::size_t a;
    std::size_t b;
    std::vector<std::size_t> sep;
  };
  std::vector<Candidate> all_edges;
  for (std::size_t a = 0; a < cliques_.size(); ++a) {
    for (std::size_t b = a + 1; b < cliques_.size(); ++b) {
      std::vector<std::size_t> sep;
      std::set_intersection(cliques_[a].begin(), cliques_[a].end(),
                            cliques_[b].begin(), cliques_[b].end(),
                            std::back_inserter(sep));
      if (!sep.empty()) {
        all_edges.push_back({a, b, std::move(sep)});
      }
    }
  }
  std::sort(all_edges.begin(), all_edges.end(),
            [](const Candidate& x, const Candidate& y) {
              return x.sep.size() > y.sep.size();
            });
  std::vector<std::size_t> parent(cliques_.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  neighbors_.assign(cliques_.size(), {});
  for (auto& e : all_edges) {
    const std::size_t ra = find(e.a);
    const std::size_t rb = find(e.b);
    if (ra == rb) continue;
    parent[ra] = rb;
    neighbors_[e.a].push_back(e.b);
    neighbors_[e.b].push_back(e.a);
    edges_.push_back({e.a, e.b, std::move(e.sep)});
  }

  // Assign each node's family to a containing clique.
  family_clique_.assign(net_.size(), 0);
  for (std::size_t v = 0; v < net_.size(); ++v) {
    std::vector<std::size_t> family(net_.dag().parents(v).begin(),
                                    net_.dag().parents(v).end());
    family.push_back(v);
    std::sort(family.begin(), family.end());
    bool found = false;
    for (std::size_t c = 0; c < cliques_.size(); ++c) {
      if (is_subset(family, cliques_[c])) {
        family_clique_[v] = c;
        found = true;
        break;
      }
    }
    KERTBN_ASSERT(found && "family must fit a clique (triangulation bug)");
  }

  // Rooted-forest view for incremental recalibration. Roots are the
  // smallest clique index of each component — the same roots the legacy
  // ascending component discovery picked, which evidence_probability()
  // depends on.
  const std::size_t m = cliques_.size();
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> edge_index;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    edge_index[{std::min(edges_[e].a, edges_[e].b),
                std::max(edges_[e].a, edges_[e].b)}] = e;
  }
  parent_clique_.assign(m, kNone);
  parent_edge_.assign(m, kNone);
  component_of_.assign(m, kNone);
  for (std::size_t c = 0; c < m; ++c) {
    if (component_of_[c] != kNone) continue;
    const std::size_t comp = roots_.size();
    roots_.push_back(c);
    std::vector<std::size_t> bfs{c};
    component_of_[c] = comp;
    for (std::size_t i = 0; i < bfs.size(); ++i) {
      const std::size_t x = bfs[i];
      for (std::size_t nb : neighbors_[x]) {
        if (component_of_[nb] != kNone) continue;
        component_of_[nb] = comp;
        parent_clique_[nb] = x;
        parent_edge_[nb] = edge_index.at({std::min(x, nb), std::max(x, nb)});
        bfs.push_back(nb);
      }
    }
    // Reversed BFS order puts every clique before its parent: a valid
    // postorder for bottom-up (collect) accumulation.
    postorder_.insert(postorder_.end(), bfs.rbegin(), bfs.rend());
  }

  // Size every cache so later phases never reallocate (message() hands out
  // stable references into these vectors).
  const std::size_t dm = 2 * edges_.size();
  clean_base_.resize(m);
  clean_msgs_.resize(dm);
  clean_beliefs_.resize(m);
  clean_belief_ready_.assign(m, 0);
  clean_root_total_.assign(roots_.size(), 1.0);
  dirty_.assign(m, 0);
  subtree_dirty_.assign(m, 0);
  comp_dirty_.assign(roots_.size(), 0);
  cur_msgs_.resize(dm);
  cur_msg_epoch_.assign(dm, kNone);
  cur_pots_.resize(m);
  cur_pot_epoch_.assign(m, kNone);
  cur_beliefs_.resize(m);
  cur_belief_epoch_.assign(m, kNone);
  posterior_plans_.resize(n);
  posterior_plan_ready_.assign(n, 0);
}

void JunctionTree::build_bases() const {
  // Each clique's potential is the product of the families assigned to it,
  // folded pairwise in node order from the CPT tables: the scope and the
  // multiplies of the legacy Factor fold from the unit factor (1·x = x, so
  // the first family is taken as is), and products are bit-exact on every
  // tier. A clique with no family keeps the unit factor. The workspace is
  // local so the serving plan cache and its counters see only queries.
  FactorWorkspace ws;
  FlatFactor tmp;
  std::fill(clean_base_.begin(), clean_base_.end(), FlatFactor::unit());
  for (std::size_t v = 0; v < net_.size(); ++v) {
    FlatFactor& base = clean_base_[family_clique_[v]];
    if (base.scope.empty()) {
      base = family_factor(net_, v);
      continue;
    }
    ws.product(base, family_factor(net_, v), tmp);
    std::swap(base, tmp);
  }
}

std::size_t JunctionTree::message_id(std::size_t x, std::size_t y) const {
  const std::size_t e =
      (parent_clique_[x] == y) ? parent_edge_[x] : parent_edge_[y];
  KERTBN_ASSERT(e != kNone);
  KERTBN_ASSERT((edges_[e].a == x && edges_[e].b == y) ||
                (edges_[e].a == y && edges_[e].b == x));
  return 2 * e + (edges_[e].a == x ? 0 : 1);
}

bool JunctionTree::message_affected(std::size_t x, std::size_t y) const {
  if (parent_clique_[x] == y) {
    // Upward message: dirt anywhere in x's subtree invalidates it.
    return subtree_dirty_[x] > 0;
  }
  // Downward message x -> y (y is x's child): dirt anywhere outside y's
  // subtree — i.e. on x's side of the edge — invalidates it.
  return comp_dirty_[component_of_[x]] - subtree_dirty_[y] > 0;
}

void JunctionTree::ensure_clean() const {
  if (clean_ready_) return;
  KERTBN_SPAN_VAR(span, "jt.calibrate");
  span.tag("evidence", std::uint64_t{0});
  build_bases();
  auto compute_msg = [&](std::size_t x, std::size_t y) {
    std::vector<const FlatFactor*> in;
    for (std::size_t nb : neighbors_[x]) {
      if (nb == y) continue;
      in.push_back(&clean_msgs_[message_id(nb, x)]);
    }
    const std::size_t id = message_id(x, y);
    // Same kernel call as message(): clean and evidence executions must
    // stay bit-identical.
    ws_.product_chain_reduce(clean_base_[x], in, edges_[id / 2].separator,
                             clean_msgs_[id]);
    ++stats_.messages_recomputed;
  };
  // Collect (children before parents), then distribute (parents before
  // children). Message fixed points are schedule-independent, so these
  // values are bit-identical to the legacy recursive schedule.
  for (std::size_t c : postorder_) {
    if (parent_clique_[c] != kNone) compute_msg(c, parent_clique_[c]);
  }
  for (auto it = postorder_.rbegin(); it != postorder_.rend(); ++it) {
    for (std::size_t nb : neighbors_[*it]) {
      if (parent_clique_[nb] == *it) compute_msg(*it, nb);
    }
  }
  clean_ready_ = true;
  for (std::size_t r : roots_) {
    clean_root_total_[component_of_[r]] = clean_belief(r).total();
  }
  note_messages(stats_.messages_recomputed, 0);
}

const FlatFactor& JunctionTree::clean_belief(std::size_t c) const {
  KERTBN_ASSERT(clean_ready_);
  // No messages come in: the belief is the base itself (an empty chain
  // would only copy it).
  if (neighbors_[c].empty()) return clean_base_[c];
  if (clean_belief_ready_[c]) return clean_beliefs_[c];
  std::vector<const FlatFactor*> in;
  for (std::size_t nb : neighbors_[c]) {
    in.push_back(&clean_msgs_[message_id(nb, c)]);
  }
  ws_.product_chain(clean_base_[c], in, clean_beliefs_[c]);
  clean_belief_ready_[c] = 1;
  ++stats_.beliefs_computed;
  return clean_beliefs_[c];
}

const FlatFactor& JunctionTree::potential(std::size_t c) const {
  if (!dirty_[c]) return clean_base_[c];
  if (cur_pot_epoch_[c] == epoch_) return cur_pots_[c];
  cur_pots_[c] = clean_base_[c];
  for (const auto& [v, state] : evidence_) {
    if (family_clique_[v] == c) apply_evidence(cur_pots_[c], v, state);
  }
  cur_pot_epoch_[c] = epoch_;
  return cur_pots_[c];
}

const FlatFactor& JunctionTree::message(std::size_t x, std::size_t y) const {
  const std::size_t id = message_id(x, y);
  if (!message_affected(x, y)) {
    ++stats_.messages_reused;
    note_messages(0, 1);
    return clean_msgs_[id];
  }
  if (cur_msg_epoch_[id] == epoch_) return cur_msgs_[id];
  // Pull dependencies first; the recursion completes before the workspace
  // scratch is touched for this level. Operand lists come from a
  // depth-indexed pool (the recursion may grow the pool, so slots are
  // re-indexed on every access, never held by reference).
  const std::size_t depth = msg_depth_++;
  if (msg_in_pool_.size() <= depth) msg_in_pool_.resize(depth + 1);
  msg_in_pool_[depth].clear();
  for (std::size_t nb : neighbors_[x]) {
    if (nb == y) continue;
    const FlatFactor& m = message(nb, x);
    msg_in_pool_[depth].push_back(&m);
  }
  ws_.product_chain_reduce(potential(x), msg_in_pool_[depth],
                           edges_[id / 2].separator, cur_msgs_[id]);
  --msg_depth_;
  cur_msg_epoch_[id] = epoch_;
  ++stats_.messages_recomputed;
  note_messages(1, 0);
  return cur_msgs_[id];
}

const FlatFactor& JunctionTree::belief(std::size_t c) const {
  // Every message into c is clean unless a clique other than c is dirty;
  // c's own evidence is left to the read.
  if (comp_dirty_[component_of_[c]] == static_cast<std::size_t>(dirty_[c])) {
    return clean_belief(c);
  }
  if (cur_belief_epoch_[c] == epoch_) return cur_beliefs_[c];
  const std::size_t depth = msg_depth_++;
  if (msg_in_pool_.size() <= depth) msg_in_pool_.resize(depth + 1);
  msg_in_pool_[depth].clear();
  for (std::size_t nb : neighbors_[c]) {
    const FlatFactor& m = message(nb, c);
    msg_in_pool_[depth].push_back(&m);
  }
  ws_.product_chain(clean_base_[c], msg_in_pool_[depth], cur_beliefs_[c]);
  --msg_depth_;
  cur_belief_epoch_[c] = epoch_;
  ++stats_.beliefs_computed;
  return cur_beliefs_[c];
}

const FlatFactor& JunctionTree::read_belief(std::size_t c) const {
  const FlatFactor* b = &belief(c);
  for (const auto& [v, state] : evidence_) {
    if (family_clique_[v] != c) continue;
    reduce_evidence(*b, v, state, read_slice_);
    b = &read_slice_;
  }
  return *b;
}

void JunctionTree::calibrate(
    const std::map<std::size_t, std::size_t>& evidence) {
  calibrate_sorted(SortedEvidence(evidence.begin(), evidence.end()));
}

void JunctionTree::calibrate_sorted(const SortedEvidence& evidence) {
  KERTBN_SPAN_VAR(span, "jt.calibrate");
  span.tag("evidence", static_cast<std::uint64_t>(evidence.size()));
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    KERTBN_EXPECTS(evidence[i].first < net_.size());
    KERTBN_EXPECTS(evidence[i].second <
                   net_.variable(evidence[i].first).cardinality);
    KERTBN_EXPECTS(i == 0 || evidence[i - 1].first < evidence[i].first);
  }
  ensure_clean();
  evidence_ = evidence;
  ++epoch_;

  const std::size_t m = cliques_.size();
  std::fill(dirty_.begin(), dirty_.end(), char{0});
  if (incremental_) {
    for (const auto& [v, state] : evidence_) {
      (void)state;
      dirty_[family_clique_[v]] = 1;
    }
  } else {
    std::fill(dirty_.begin(), dirty_.end(), char{1});
  }
  std::fill(subtree_dirty_.begin(), subtree_dirty_.end(), std::size_t{0});
  for (std::size_t c : postorder_) {
    subtree_dirty_[c] += static_cast<std::size_t>(dirty_[c]);
    if (parent_clique_[c] != kNone) {
      subtree_dirty_[parent_clique_[c]] += subtree_dirty_[c];
    }
  }
  for (std::size_t r : roots_) {
    comp_dirty_[component_of_[r]] = subtree_dirty_[r];
  }

  std::size_t dirty_count = 0;
  for (char d : dirty_) dirty_count += static_cast<std::size_t>(d);
  ++stats_.calibrations;
  if (dirty_count == m) ++stats_.full_calibrations;
  span.tag("dirty", static_cast<std::uint64_t>(dirty_count));
  if (obs::enabled()) {
    static obs::Counter& calibrations =
        obs::MetricsRegistry::instance().counter("kert.query.calibrations");
    static obs::Counter& dirty_cliques =
        obs::MetricsRegistry::instance().counter("kert.query.dirty_cliques");
    calibrations.add(1);
    dirty_cliques.add(dirty_count);
  }
}

double JunctionTree::evidence_probability() const {
  ensure_clean();
  if (!ep_ready_ || ep_epoch_ != epoch_) {
    // Same accumulation order as the legacy pass: roots ascending. Clean
    // components contribute their cached totals (bit-identical values).
    double p = 1.0;
    for (std::size_t r : roots_) {
      const std::size_t comp = component_of_[r];
      p *= (comp_dirty_[comp] == 0) ? clean_root_total_[comp]
                                    : read_belief(r).total();
    }
    evidence_probability_ = p;
    ep_epoch_ = epoch_;
    ep_ready_ = true;
  }
  return evidence_probability_;
}

std::vector<double> JunctionTree::posterior(std::size_t v) const {
  KERTBN_EXPECTS(v < net_.size());
  KERTBN_EXPECTS(!std::binary_search(
      evidence_.begin(), evidence_.end(),
      std::pair<std::size_t, std::size_t>{v, 0},
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  ensure_clean();
  const FlatFactor& b = read_belief(family_clique_[v]);
  const std::size_t target[1] = {v};
  const bool sliced = &b == &read_slice_;
  if (!sliced && !posterior_plan_ready_[v]) {
    posterior_plans_[v] = make_reduce_plan(b.scope, b.cards, target);
    posterior_plan_ready_[v] = 1;
  }
  // A slice of the clique's own evidence reduces through the workspace's
  // plan cache and scratch (evidence means this tree is a per-worker copy);
  // other reads use the per-node plan and local buffers, which keeps warm
  // no-evidence reads mutation-free (sharable across threads after warm()).
  const ReducePlan& plan =
      sliced ? ws_.reduce_plan(b, target) : posterior_plans_[v];
  KERTBN_ASSERT(plan.out_scope.size() == 1 && plan.out_scope[0] == v);
  std::vector<double> out;
  std::vector<double> local_scratch;
  reduce_into(plan, b.values, sliced ? read_scratch_ : local_scratch, out);
  // Each entry over the storage-order total; an all-zero marginal stays
  // as it is.
  double t = 0.0;
  for (double x : out) t += x;
  if (t > 0.0) {
    for (double& x : out) x /= t;
  }
  return out;
}

void JunctionTree::warm() {
  ensure_clean();
  for (std::size_t c = 0; c < cliques_.size(); ++c) clean_belief(c);
  for (std::size_t v = 0; v < net_.size(); ++v) {
    if (posterior_plan_ready_[v]) continue;
    const FlatFactor& b = clean_belief(family_clique_[v]);
    const std::size_t target[1] = {v};
    posterior_plans_[v] = make_reduce_plan(b.scope, b.cards, target);
    posterior_plan_ready_[v] = 1;
  }
  evidence_probability();
}

std::size_t JunctionTree::max_clique_size() const {
  std::size_t m = 0;
  for (const auto& c : cliques_) m = std::max(m, c.size());
  return m;
}

}  // namespace kertbn::bn
