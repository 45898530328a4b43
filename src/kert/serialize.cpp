#include "kert/serialize.hpp"

#include <cmath>
#include <cstdio>
#include <istream>
#include <iterator>
#include <memory>
#include <ostream>
#include <string_view>
#include <vector>

#include "bn/deterministic_cpd.hpp"
#include "bn/linear_gaussian_cpd.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/contract.hpp"
#include "common/text_codec.hpp"
#include "kert/kert_builder.hpp"
#include "workflow/serialize.hpp"

namespace kertbn::core {
namespace {

constexpr std::string_view kMagic = "kertbn-model";
constexpr std::size_t kVersion = 1;
constexpr std::string_view kNetMagic = "kertbn-net";
constexpr std::size_t kNetVersion = 1;

/// Collection-size sanity caps for the fallible loader: a corrupt count
/// field must produce a LoadError, not a multi-gigabyte allocation.
constexpr std::size_t kMaxCount = 100000;
constexpr std::size_t kMaxTableValues = 10'000'000;

/// Header, workflow and sharing blocks: the knowledge of a KERT-BN.
void write_knowledge(text::Writer& out, const wf::Workflow& workflow,
                     const wf::ResourceSharing& sharing) {
  out << kMagic << ' ' << kVersion << '\n';
  out << wf::workflow_to_text(workflow);
  out << "sharing " << sharing.groups.size() << '\n';
  for (const auto& g : sharing.groups) {
    out << "group " << g.name << ' ' << g.services.size();
    for (std::size_t s : g.services) out << ' ' << s;
    out << '\n';
  }
}

void write_structure(text::Writer& out, const bn::BayesianNetwork& net) {
  out << "edges " << net.dag().edge_count() << '\n';
  for (std::size_t v = 0; v < net.size(); ++v) {
    for (std::size_t p : net.dag().parents(v)) {
      out << "edge " << p << ' ' << v << '\n';
    }
  }
}

/// "<card> <parents> <parent cards...> <values> <value...>\n".
void write_table(text::Writer& out, const bn::TabularCpd& tab) {
  out << tab.child_cardinality() << ' '
      << tab.parent_cardinalities().size();
  for (std::size_t c : tab.parent_cardinalities()) out << ' ' << c;
  out << ' ' << tab.config_count() * tab.child_cardinality();
  for (std::size_t cfg = 0; cfg < tab.config_count(); ++cfg) {
    for (std::size_t s = 0; s < tab.child_cardinality(); ++s) {
      out << ' ' << tab.probability(cfg, s);
    }
  }
  out << '\n';
}

/// "cpds <n>" and one "cpd <node> <kind> ..." line per node except
/// \p skip (the knowledge-given response node; npos keeps every node).
void write_cpds(text::Writer& out, const bn::BayesianNetwork& net,
                std::size_t skip) {
  out << "cpds " << net.size() - (skip < net.size() ? 1 : 0) << '\n';
  for (std::size_t v = 0; v < net.size(); ++v) {
    if (v == skip) continue;
    const bn::Cpd& cpd = net.cpd(v);
    out << "cpd " << v;
    if (cpd.kind() == bn::CpdKind::kLinearGaussian) {
      const auto& lg = static_cast<const bn::LinearGaussianCpd&>(cpd);
      out << " lingauss " << lg.intercept() << ' ' << lg.weights().size();
      for (double w : lg.weights()) out << ' ' << w;
      out << ' ' << lg.sigma() << '\n';
    } else {
      KERTBN_EXPECTS(cpd.kind() == bn::CpdKind::kTabular);
      out << " tabular ";
      write_table(out, static_cast<const bn::TabularCpd&>(cpd));
    }
  }
}

/// Fallible reader for the kertbn-model and kertbn-net formats. Every
/// method reports malformed input by value; nothing in here aborts. The
/// aborting loaders turn the error into a contract failure for callers
/// that prefer fail-fast.
class ModelReader {
 public:
  explicit ModelReader(std::string_view text) : in_(text) {}

  bool read_model(std::optional<SavedModel>& out);
  bool read_network(std::optional<bn::BayesianNetwork>& out);

  std::string error() const {
    return error_.empty() ? "malformed model" : error_;
  }

 private:
  bool fail(std::string what) {
    if (error_.empty()) error_ = std::move(what);
    return false;
  }
  bool word(std::string_view& out) {
    out = in_.token();
    return out.empty() ? fail("unexpected end of input") : true;
  }
  bool expect(std::string_view keyword) {
    std::string_view w;
    if (!word(w)) return false;
    if (w != keyword) {
      return fail("expected '" + std::string(keyword) + "', got '" +
                  std::string(w) + "'");
    }
    return true;
  }
  bool count(std::size_t& out, std::size_t cap = kMaxCount) {
    if (!in_.count(out)) return fail("expected a count");
    if (out > cap) return fail("count exceeds sanity cap");
    return true;
  }
  bool real(double& out) {
    return in_.number(out) ? true : fail("expected a finite number");
  }
  bool version(std::string_view magic, std::size_t expected) {
    std::string_view w;
    if (!word(w)) return false;
    if (w != magic) return fail("bad magic '" + std::string(w) + "'");
    std::size_t v = 0;
    if (!in_.count(v)) return fail("missing version");
    if (v != expected) {
      return fail("unsupported version " + std::to_string(v));
    }
    return true;
  }

  bool read_workflow(std::optional<wf::Workflow>& out);
  bool read_sharing(std::size_t n_services, wf::ResourceSharing& out);
  bool read_discretizer(std::size_t bins,
                        std::optional<DatasetDiscretizer>& out);
  bool read_edges(bn::BayesianNetwork& net);
  /// The table of \p node's tabular CPD; its cardinalities must be the
  /// node's and its parents'.
  bool read_tabular(const bn::BayesianNetwork& net, std::size_t node,
                    std::optional<bn::TabularCpd>& out);
  /// "cpds <n>" (exactly \p expected) and its lines, for every node but
  /// \p skip.
  bool read_cpds(bn::BayesianNetwork& net, std::size_t expected,
                 std::size_t skip);
  /// True when every activity index in the tree is < n_services.
  static bool tree_in_range(const wf::Node& node, std::size_t n_services);

  text::Cursor in_;
  std::string error_;
};

bool ModelReader::tree_in_range(const wf::Node& node,
                                std::size_t n_services) {
  if (node.kind() == wf::NodeKind::kActivity) {
    return node.service_index() < n_services;
  }
  for (const auto& child : node.children()) {
    if (!tree_in_range(*child, n_services)) return false;
  }
  return true;
}

bool ModelReader::read_workflow(std::optional<wf::Workflow>& out) {
  std::size_t n_services = 0;
  if (!expect("workflow") || !count(n_services)) return false;
  if (n_services == 0) return fail("workflow has no services");
  std::vector<std::string> names(n_services);
  for (std::size_t i = 0; i < n_services; ++i) {
    std::size_t idx = 0;
    std::string_view name;
    if (!expect("name") || !count(idx)) return false;
    if (idx >= n_services) return fail("service name index out of range");
    if (!names[idx].empty()) return fail("service name index repeated");
    if (!word(name)) return false;
    names[idx] = name;
  }
  if (!expect("tree")) return false;
  std::string tree_error;
  wf::Node::Ptr root =
      wf::try_node_from_text(std::string(in_.rest_of_line()), &tree_error);
  if (root == nullptr) {
    return fail("workflow tree: " + tree_error);
  }
  if (!tree_in_range(*root, n_services)) {
    return fail("workflow tree references an unknown service");
  }
  out.emplace(std::move(names), std::move(root));
  return true;
}

bool ModelReader::read_sharing(std::size_t n_services,
                               wf::ResourceSharing& out) {
  std::size_t groups = 0;
  if (!expect("sharing") || !count(groups)) return false;
  for (std::size_t g = 0; g < groups; ++g) {
    wf::ResourceGroup group;
    std::string_view name;
    std::size_t n = 0;
    if (!expect("group") || !word(name) || !count(n)) return false;
    group.name = name;
    group.services.resize(n);
    for (std::size_t& s : group.services) {
      if (!count(s)) return false;
      if (s >= n_services) {
        return fail("sharing group names an unknown service");
      }
    }
    out.groups.push_back(std::move(group));
  }
  return true;
}

bool ModelReader::read_discretizer(std::size_t bins,
                                   std::optional<DatasetDiscretizer>& out) {
  std::size_t cols = 0;
  if (!expect("discretizer") || !count(cols)) return false;
  if (cols == 0) return fail("discretizer has no columns");
  std::vector<ColumnDiscretizer> columns;
  columns.reserve(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    std::size_t idx = 0;
    double lo = 0.0;
    double hi = 0.0;
    std::size_t n_edges = 0;
    if (!expect("column") || !count(idx) || !real(lo) || !real(hi) ||
        !count(n_edges)) {
      return false;
    }
    if (idx != c) return fail("discretizer column out of order");
    if (hi < lo) return fail("discretizer column range inverted");
    std::vector<double> edges(n_edges);
    for (double& e : edges) {
      if (!real(e)) return false;
    }
    for (std::size_t i = 1; i < edges.size(); ++i) {
      if (!(edges[i] > edges[i - 1])) {
        return fail("discretizer edges not increasing");
      }
    }
    std::size_t n_centers = 0;
    if (!count(n_centers)) return false;
    if (n_centers != n_edges + 1 || n_centers != bins) {
      return fail("discretizer bin/edge count mismatch");
    }
    std::vector<double> centers(n_centers);
    for (double& x : centers) {
      if (!real(x)) return false;
    }
    columns.push_back(ColumnDiscretizer::from_parts(
        std::move(edges), std::move(centers), lo, hi));
  }
  out = DatasetDiscretizer::from_columns(std::move(columns));
  return true;
}

bool ModelReader::read_edges(bn::BayesianNetwork& net) {
  std::size_t n_edges = 0;
  if (!expect("edges") || !count(n_edges)) return false;
  for (std::size_t e = 0; e < n_edges; ++e) {
    std::size_t a = 0;
    std::size_t b = 0;
    if (!expect("edge") || !count(a) || !count(b)) return false;
    if (a >= net.size() || b >= net.size()) {
      return fail("edge endpoint out of range");
    }
    if (!net.add_edge(a, b)) {
      return fail("edge rejected (duplicate, self-loop, or cycle)");
    }
  }
  return true;
}

bool ModelReader::read_tabular(const bn::BayesianNetwork& net,
                               std::size_t node,
                               std::optional<bn::TabularCpd>& out) {
  std::size_t card = 0;
  std::size_t np = 0;
  if (!count(card) || !count(np)) return false;
  if (card != net.variable(node).cardinality) {
    return fail("CPT cardinality does not match its node");
  }
  const auto parents = net.dag().parents(node);
  if (np != parents.size()) {
    return fail("CPT parent count does not match structure");
  }
  std::vector<std::size_t> pcards(np);
  std::size_t configs = 1;
  for (std::size_t i = 0; i < np; ++i) {
    if (!count(pcards[i])) return false;
    const bn::Variable& parent = net.variable(parents[i]);
    if (!parent.is_discrete() || pcards[i] != parent.cardinality) {
      return fail("CPT parent cardinality does not match its parent");
    }
    if (configs > kMaxTableValues / pcards[i]) return fail("CPT too large");
    configs *= pcards[i];
  }
  std::size_t nvals = 0;
  if (!count(nvals, kMaxTableValues)) return false;
  if (nvals != configs * card) return fail("CPT value count mismatch");
  std::vector<double> values(nvals);
  for (double& v : values) {
    if (!real(v)) return false;
    if (v < 0.0) return fail("negative CPT probability");
  }
  // Rows are kept as written (see TabularCpd::from_distributions), so a
  // loaded table re-saves to the same bytes.
  for (std::size_t cfg = 0; cfg < configs; ++cfg) {
    double sum = 0.0;
    for (std::size_t s = 0; s < card; ++s) sum += values[cfg * card + s];
    if (!(std::abs(sum - 1.0) <= bn::TabularCpd::kRowSumTolerance)) {
      return fail("CPT row does not sum to 1");
    }
  }
  out.emplace(bn::TabularCpd::from_distributions(card, std::move(pcards),
                                                 std::move(values)));
  return true;
}

bool ModelReader::read_cpds(bn::BayesianNetwork& net, std::size_t expected,
                            std::size_t skip) {
  std::size_t n_cpds = 0;
  if (!expect("cpds") || !count(n_cpds)) return false;
  if (n_cpds != expected) return fail("CPD count does not match the nodes");
  for (std::size_t i = 0; i < n_cpds; ++i) {
    std::size_t node = 0;
    std::string_view kind;
    if (!expect("cpd") || !count(node) || !word(kind)) return false;
    if (node >= net.size() || node == skip) {
      return fail("CPD node index out of range");
    }
    if (net.has_cpd(node)) return fail("CPD given twice for one node");
    const bool discrete = net.variable(node).is_discrete();
    if (kind == "lingauss") {
      if (discrete) return fail("linear-Gaussian CPD on a discrete node");
      double intercept = 0.0;
      std::size_t k = 0;
      if (!real(intercept) || !count(k)) return false;
      if (k != net.dag().parents(node).size()) {
        return fail("CPD weight count does not match structure");
      }
      std::vector<double> weights(k);
      for (double& w : weights) {
        if (!real(w)) return false;
      }
      double sigma = 0.0;
      if (!real(sigma)) return false;
      if (!(sigma > 0.0)) {
        return fail("linear-Gaussian sigma must be positive");
      }
      net.set_cpd(node, std::make_unique<bn::LinearGaussianCpd>(
                            intercept, std::move(weights), sigma));
    } else if (kind == "tabular") {
      if (!discrete) return fail("tabular CPD on a continuous node");
      std::optional<bn::TabularCpd> cpd;
      if (!read_tabular(net, node, cpd)) return false;
      net.set_cpd(node, std::make_unique<bn::TabularCpd>(std::move(*cpd)));
    } else {
      return fail("unknown CPD kind '" + std::string(kind) + "'");
    }
  }
  return true;
}

bool ModelReader::read_model(std::optional<SavedModel>& out) {
  if (!version(kMagic, kVersion)) return false;

  std::optional<wf::Workflow> workflow;
  if (!read_workflow(workflow)) return false;
  const std::size_t n_services = workflow->service_count();

  wf::ResourceSharing sharing;
  if (!read_sharing(n_services, sharing)) return false;

  std::string_view kind;
  if (!expect("kind") || !word(kind)) return false;
  std::size_t bins = 0;
  std::optional<DatasetDiscretizer> discretizer;
  if (kind == "discrete") {
    if (!count(bins)) return false;
    if (bins < 2) return fail("discrete model needs >= 2 bins");
    if (!read_discretizer(bins, discretizer)) return false;
  } else if (kind != "continuous") {
    return fail("unknown model kind '" + std::string(kind) + "'");
  }

  std::size_t n_nodes = 0;
  if (!expect("nodes") || !count(n_nodes)) return false;
  if (n_nodes < n_services + 1) {
    return fail("fewer nodes than services + response");
  }
  if (n_nodes - n_services - 1 > sharing.groups.size()) {
    return fail("more resource nodes than sharing groups");
  }
  if (discretizer.has_value() && discretizer->columns() != n_nodes) {
    return fail("discretizer columns do not match the nodes");
  }

  // Rebuild the node set: services, optional extras (resource nodes), D.
  bn::BayesianNetwork net;
  for (std::size_t v = 0; v < n_nodes; ++v) {
    std::string node_name;
    if (v < n_services) {
      node_name = workflow->service_names()[v];
    } else if (v + 1 == n_nodes) {
      node_name = "D";
    } else {
      node_name = sharing.groups[v - n_services].name;
    }
    net.add_node(bins == 0
                     ? bn::Variable::continuous(std::move(node_name))
                     : bn::Variable::discrete(std::move(node_name), bins));
  }
  if (!read_edges(net)) return false;

  // D = f(X): its parents are the services, in service order, which is
  // how the response function indexes them.
  const std::size_t d_node = n_nodes - 1;
  const auto d_parents = net.dag().parents(d_node);
  bool services_only = d_parents.size() == n_services;
  for (std::size_t i = 0; services_only && i < n_services; ++i) {
    services_only = d_parents[i] == i;
  }
  if (!services_only) {
    return fail("response node's parents are not the services in order");
  }

  double leak = 0.0;
  if (!expect("leak") || !real(leak)) return false;
  if (bins == 0) {
    if (!(leak > 0.0)) return fail("continuous leak sigma must be positive");
    // Rebuild the deterministic response CPD from the workflow knowledge.
    net.set_cpd(d_node, std::make_unique<bn::DeterministicCpd>(
                            make_response_fn(*workflow), leak));
  } else {
    std::optional<bn::TabularCpd> cpt;
    if (!expect("response_cpt") || !read_tabular(net, d_node, cpt)) {
      return false;
    }
    net.set_cpd(d_node, std::make_unique<bn::TabularCpd>(std::move(*cpt)));
  }

  if (!read_cpds(net, n_nodes - 1, d_node) || !expect("end")) return false;
  if (!net.is_complete()) return fail("model is missing CPDs");

  out.emplace(SavedModel{std::move(*workflow), std::move(sharing), bins,
                         std::move(discretizer), leak, std::move(net)});
  return true;
}

bool ModelReader::read_network(std::optional<bn::BayesianNetwork>& out) {
  if (!version(kNetMagic, kNetVersion)) return false;
  std::size_t n_nodes = 0;
  if (!expect("nodes") || !count(n_nodes)) return false;
  bn::BayesianNetwork net;
  for (std::size_t v = 0; v < n_nodes; ++v) {
    std::size_t idx = 0;
    std::string_view kind;
    std::string_view name;
    if (!expect("node") || !count(idx) || !word(kind)) return false;
    if (idx != v) return fail("node out of order");
    if (kind == "discrete") {
      std::size_t card = 0;
      if (!count(card) || !word(name)) return false;
      if (card < 2) return fail("discrete node needs >= 2 states");
      net.add_node(bn::Variable::discrete(std::string(name), card));
    } else if (kind == "continuous") {
      if (!word(name)) return false;
      net.add_node(bn::Variable::continuous(std::string(name)));
    } else {
      return fail("unknown node kind '" + std::string(kind) + "'");
    }
  }
  if (!read_edges(net) || !read_cpds(net, n_nodes, std::string::npos) ||
      !expect("end")) {
    return false;
  }
  if (!net.is_complete()) return fail("network is missing CPDs");
  out.emplace(std::move(net));
  return true;
}

std::string read_stream(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace

std::string save_to_string(const wf::Workflow& workflow,
                           const wf::ResourceSharing& sharing,
                           const bn::BayesianNetwork& net) {
  const std::size_t d_node = net.size() - 1;
  KERTBN_EXPECTS(net.is_complete());
  KERTBN_EXPECTS(net.cpd(d_node).kind() == bn::CpdKind::kDeterministic);
  const auto& det = static_cast<const bn::DeterministicCpd&>(net.cpd(d_node));

  text::Writer out;
  write_knowledge(out, workflow, sharing);
  out << "kind continuous\n";
  out << "nodes " << net.size() << '\n';
  write_structure(out, net);
  out << "leak " << det.leak_sigma() << '\n';
  write_cpds(out, net, d_node);
  out << "end\n";
  return std::move(out.str());
}

std::string save_discrete_to_string(const wf::Workflow& workflow,
                                    const wf::ResourceSharing& sharing,
                                    const DatasetDiscretizer& discretizer,
                                    double leak_l,
                                    const bn::BayesianNetwork& net) {
  const std::size_t d_node = net.size() - 1;
  KERTBN_EXPECTS(net.is_complete());
  KERTBN_EXPECTS(net.cpd(d_node).kind() == bn::CpdKind::kTabular);
  const auto& response = static_cast<const bn::TabularCpd&>(net.cpd(d_node));

  text::Writer out;
  // The response CPT dominates the text: about 25 bytes per entry.
  out.reserve(4096 + 25 * response.config_count() *
                         response.child_cardinality());
  write_knowledge(out, workflow, sharing);
  out << "kind discrete " << discretizer.bins() << '\n';
  out << "discretizer " << discretizer.columns() << '\n';
  for (std::size_t c = 0; c < discretizer.columns(); ++c) {
    const auto& col = discretizer.column(c);
    out << "column " << c << ' ' << col.data_min() << ' ' << col.data_max()
        << ' ' << col.edges().size();
    for (double e : col.edges()) out << ' ' << e;
    out << ' ' << col.bins();
    for (std::size_t b = 0; b < col.bins(); ++b) {
      out << ' ' << col.center_of(b);
    }
    out << '\n';
  }
  out << "nodes " << net.size() << '\n';
  write_structure(out, net);
  out << "leak " << leak_l << '\n';
  // The response CPT is stored verbatim (rebuilding it from knowledge is
  // possible but would tie files to the CPT-integration sampling scheme).
  out << "response_cpt ";
  write_table(out, response);
  write_cpds(out, net, d_node);
  out << "end\n";
  return std::move(out.str());
}

void save_kert_continuous(std::ostream& out, const wf::Workflow& workflow,
                          const wf::ResourceSharing& sharing,
                          const bn::BayesianNetwork& net) {
  out << save_to_string(workflow, sharing, net);
}

void save_kert_discrete(std::ostream& out, const wf::Workflow& workflow,
                        const wf::ResourceSharing& sharing,
                        const DatasetDiscretizer& discretizer, double leak_l,
                        const bn::BayesianNetwork& net) {
  out << save_discrete_to_string(workflow, sharing, discretizer, leak_l,
                                 net);
}

LoadResult try_load_from_string(std::string_view text) {
  ModelReader reader(text);
  std::optional<SavedModel> model;
  if (!reader.read_model(model)) return LoadResult(LoadError{reader.error()});
  return LoadResult(std::move(*model));
}

LoadResult try_load_kert_model(std::istream& in) {
  return try_load_from_string(read_stream(in));
}

SavedModel load_from_string(std::string_view text) {
  LoadResult result = try_load_from_string(text);
  if (!result) {
    std::fprintf(stderr, "kertbn: load_kert_model: %s\n",
                 result.error().message.c_str());
  }
  KERTBN_EXPECTS(result.has_value() && "malformed model input");
  return std::move(*result);
}

SavedModel load_kert_model(std::istream& in) {
  return load_from_string(read_stream(in));
}

std::string network_to_string(const bn::BayesianNetwork& net) {
  KERTBN_EXPECTS(net.is_complete());
  text::Writer out;
  out << kNetMagic << ' ' << kNetVersion << '\n';
  out << "nodes " << net.size() << '\n';
  for (std::size_t v = 0; v < net.size(); ++v) {
    const bn::Variable& var = net.variable(v);
    // Names are whitespace-free throughout this library (service
    // identifiers); the line format relies on that.
    KERTBN_EXPECTS(var.name.find_first_of(" \t\n") == std::string::npos);
    if (var.is_discrete()) {
      out << "node " << v << " discrete " << var.cardinality << ' '
          << var.name << '\n';
    } else {
      out << "node " << v << " continuous " << var.name << '\n';
    }
  }
  write_structure(out, net);
  write_cpds(out, net, std::string::npos);
  out << "end\n";
  return std::move(out.str());
}

void save_network(std::ostream& out, const bn::BayesianNetwork& net) {
  out << network_to_string(net);
}

bn::BayesianNetwork network_from_string(std::string_view text) {
  ModelReader reader(text);
  std::optional<bn::BayesianNetwork> net;
  if (!reader.read_network(net)) {
    std::fprintf(stderr, "kertbn: load_network: %s\n",
                 reader.error().c_str());
  }
  KERTBN_EXPECTS(net.has_value() && "malformed network input");
  return std::move(*net);
}

bn::BayesianNetwork load_network(std::istream& in) {
  return network_from_string(read_stream(in));
}

}  // namespace kertbn::core
