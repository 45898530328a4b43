#pragma once
/// \file serialize.hpp
/// Persistence for constructed KERT-BN models. A saved model carries the
/// *knowledge* (workflow tree, resource-sharing groups, leak setting,
/// discretizer for discrete models) plus the *learned* CPD parameters; on
/// load the knowledge-given response CPD is rebuilt from the workflow, so
/// the file never needs to encode executable functions.
///
/// The format is line-oriented UTF-8 text in the number language of
/// common/text_codec.hpp (17-significant-digit doubles: save/load
/// round-trips are exact). Intended uses: shipping a model from the
/// management server to autonomic components, snapshotting model history,
/// and offline analysis. The stream overloads are thin wrappers over the
/// string forms: they read or write the whole text in one piece.

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "bn/network.hpp"
#include "common/contract.hpp"
#include "kert/discretize.hpp"
#include "workflow/resource.hpp"
#include "workflow/workflow.hpp"

namespace kertbn::core {

/// A persisted model: knowledge plus learned parameters.
struct SavedModel {
  wf::Workflow workflow;
  wf::ResourceSharing sharing;
  /// 0 = continuous model; >= 2 = discrete with this many bins.
  std::size_t bins = 0;
  /// Present iff the model is discrete.
  std::optional<DatasetDiscretizer> discretizer;
  /// Leak: sigma (continuous) or l (discrete).
  double leak = 0.0;
  bn::BayesianNetwork net;
};

/// Serializes a continuous KERT-BN (as built by construct_kert_continuous
/// or its metric/resource variants; the response node must carry a
/// DeterministicCpd).
void save_kert_continuous(std::ostream& out, const wf::Workflow& workflow,
                          const wf::ResourceSharing& sharing,
                          const bn::BayesianNetwork& net);

/// Serializes a discrete KERT-BN together with its discretizer. \p leak_l
/// is recorded for provenance; the response CPT itself is stored verbatim.
void save_kert_discrete(std::ostream& out, const wf::Workflow& workflow,
                        const wf::ResourceSharing& sharing,
                        const DatasetDiscretizer& discretizer, double leak_l,
                        const bn::BayesianNetwork& net);

/// Loads either flavor. Contract-fails on malformed input.
SavedModel load_kert_model(std::istream& in);

/// Why a model failed to load (try_load_kert_model).
struct LoadError {
  std::string message;
};

/// std::expected-style result of a fallible model load (the codebase
/// targets C++20, so this is a hand-rolled stand-in). Either holds a
/// SavedModel or a LoadError — never aborts on malformed input, which is
/// what lets a corrupt checkpoint degrade into "no model recovered"
/// instead of taking the recovering server down.
class LoadResult {
 public:
  LoadResult(SavedModel model) : model_(std::move(model)) {}
  LoadResult(LoadError error) : error_(std::move(error)) {}

  bool has_value() const { return model_.has_value(); }
  explicit operator bool() const { return has_value(); }

  SavedModel& value() {
    KERTBN_EXPECTS(model_.has_value());
    return *model_;
  }
  const SavedModel& value() const {
    KERTBN_EXPECTS(model_.has_value());
    return *model_;
  }
  SavedModel& operator*() { return value(); }
  const SavedModel& operator*() const { return value(); }
  SavedModel* operator->() { return &value(); }
  const SavedModel* operator->() const { return &value(); }

  /// Empty message when the load succeeded.
  const LoadError& error() const { return error_; }

 private:
  std::optional<SavedModel> model_;
  LoadError error_;
};

/// Fallible load of either flavor: every malformed-input case the aborting
/// loader treats as a contract violation (bad magic, truncated stream,
/// inconsistent counts, a token outside the number language, invalid CPD
/// parameters, unparsable workflow tree, indices naming no service) is
/// returned as a LoadError instead.
LoadResult try_load_kert_model(std::istream& in);
LoadResult try_load_from_string(std::string_view text);

/// The text save_kert_continuous / save_kert_discrete write.
std::string save_to_string(const wf::Workflow& workflow,
                           const wf::ResourceSharing& sharing,
                           const bn::BayesianNetwork& net);
std::string save_discrete_to_string(const wf::Workflow& workflow,
                                    const wf::ResourceSharing& sharing,
                                    const DatasetDiscretizer& discretizer,
                                    double leak_l,
                                    const bn::BayesianNetwork& net);
SavedModel load_from_string(std::string_view text);

/// Serializes an arbitrary fully-parameterized network — e.g. a learned
/// NRT-BN — without any knowledge blocks: variables, structure, and every
/// CPD. Linear-Gaussian and tabular CPDs only (a deterministic CPD cannot
/// be persisted without its workflow; use save_kert_continuous for those).
void save_network(std::ostream& out, const bn::BayesianNetwork& net);

/// Loads a network written by save_network. Contract-fails on malformed
/// input. Round-trips are exact (17-significant-digit doubles).
bn::BayesianNetwork load_network(std::istream& in);

/// Convenience string round-trips for save_network/load_network.
std::string network_to_string(const bn::BayesianNetwork& net);
bn::BayesianNetwork network_from_string(std::string_view text);

}  // namespace kertbn::core
