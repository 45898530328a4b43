#pragma once
/// \file serialize.hpp
/// Text serialization of workflow composition trees and workflows, using a
/// compact s-expression form:
///
///   (act 3)
///   (seq <child> <child> ...)
///   (par <child> <child> ...)
///   (choice <p1> <child1> <p2> <child2> ...)
///   (loop <repeat_prob> <child>)
///   (map <k_min> <w1> ... <wm> <body>)
///   (dchoice <C> <B> <g1..gC> <p11..p1B> ... <pC1..pCB> <child1..childB>)
///
/// map weights run until the body's '('; dchoice writes the class count C,
/// branch count B, the class distribution, then the C×B branch matrix in
/// row-major order before its B children.
///
/// Used by the model save/load layer (the workflow is part of the
/// knowledge a persisted KERT-BN must carry to rebuild its deterministic
/// response CPD).

#include <cstddef>
#include <string>

#include "workflow/workflow.hpp"

namespace kertbn::wf {

/// Deepest composite nesting the tree readers accept. Generated trees nest
/// about 30 deep at 1,000 services; the bound keeps hostile input from
/// exhausting the stack of the recursive descent.
inline constexpr std::size_t kMaxTreeDepth = 256;

/// Renders a composition tree as an s-expression.
std::string node_to_text(const Node& node);

/// Parses an s-expression produced by node_to_text. Contract-fails on
/// malformed input.
Node::Ptr node_from_text(const std::string& text);

/// Fallible variant for loaders that must degrade on corrupt input (the
/// durability layer's checkpoint loads): returns nullptr and fills
/// \p error instead of aborting or throwing. Counts are unsigned decimal
/// tokens and probabilities and weights finite numbers, as in the
/// durable text codec (common/text_codec); nesting deeper than
/// kMaxTreeDepth is refused. All Node-factory preconditions (non-empty
/// composites, choice probabilities summing to one, loop probability in
/// [0, 1)) are validated here first.
Node::Ptr try_node_from_text(const std::string& text, std::string* error);

/// Renders a whole workflow: first line "workflow <n>", then one
/// "name <i> <service-name>" line per service, then "tree <s-expr>".
std::string workflow_to_text(const Workflow& workflow);

/// Parses workflow_to_text output.
Workflow workflow_from_text(const std::string& text);

}  // namespace kertbn::wf
