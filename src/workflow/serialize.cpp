#include "workflow/serialize.hpp"

#include <cctype>
#include <cmath>
#include <sstream>
#include <string_view>

#include "common/contract.hpp"
#include "common/text_codec.hpp"

namespace kertbn::wf {
namespace {

void write_node(const Node& node, std::ostringstream& out) {
  switch (node.kind()) {
    case NodeKind::kActivity:
      out << "(act " << node.service_index() << ")";
      return;
    case NodeKind::kSequence:
    case NodeKind::kParallel:
      out << (node.kind() == NodeKind::kSequence ? "(seq" : "(par");
      for (const auto& c : node.children()) {
        out << ' ';
        write_node(*c, out);
      }
      out << ')';
      return;
    case NodeKind::kChoice:
      out << "(choice";
      for (std::size_t i = 0; i < node.children().size(); ++i) {
        out << ' ' << node.choice_probs()[i] << ' ';
        write_node(*node.children()[i], out);
      }
      out << ')';
      return;
    case NodeKind::kLoop:
      out << "(loop " << node.repeat_prob() << ' ';
      write_node(*node.children().front(), out);
      out << ')';
      return;
    case NodeKind::kMap:
      out << "(map " << node.map_k_min();
      for (double w : node.map_k_weights()) out << ' ' << w;
      out << ' ';
      write_node(*node.children().front(), out);
      out << ')';
      return;
    case NodeKind::kDataChoice: {
      out << "(dchoice " << node.class_probs().size() << ' '
          << node.children().size();
      for (double g : node.class_probs()) out << ' ' << g;
      for (const auto& row : node.branch_probs()) {
        for (double p : row) out << ' ' << p;
      }
      for (const auto& c : node.children()) {
        out << ' ';
        write_node(*c, out);
      }
      out << ')';
      return;
    }
  }
  KERTBN_ASSERT(false && "unreachable");
}

/// Minimal recursive-descent parser over a token cursor. Malformed input
/// is reported by value (nullptr + error message); the aborting
/// node_from_text wrapper turns that into a contract failure, while
/// try_node_from_text hands it to callers that must degrade gracefully.
/// Counts and numbers are tokens of the durable text codec
/// (common/text_codec), and containers grow only from entries actually
/// read, so no input can make the reader throw.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Node::Ptr parse(std::string* error) {
    Node::Ptr node = parse_node(0);
    skip_ws();
    if (node != nullptr && pos_ != text_.size()) {
      fail("trailing input after tree");
      node = nullptr;
    }
    if (error != nullptr) *error = error_;
    return node;
  }

 private:
  /// Records the first error (nested failures keep the root cause).
  std::nullptr_t fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return nullptr;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    ++pos_;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  std::string_view word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '(' &&
           text_[pos_] != ')' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected token");
    return std::string_view(text_).substr(start, pos_ - start);
  }

  /// The next token as a finite number (text::parse_number).
  bool number(double& out) {
    const std::string_view w = word();
    if (w.empty()) return false;
    if (!text::parse_number(w, out)) {
      fail("expected number, got '" + std::string(w) + "'");
      return false;
    }
    return true;
  }

  /// The next token as an unsigned decimal count (text::parse_count).
  bool count(std::size_t& out) {
    const std::string_view w = word();
    if (w.empty()) return false;
    if (!text::parse_count(w, out)) {
      fail("expected count, got '" + std::string(w) + "'");
      return false;
    }
    return true;
  }

  /// \p depth counts the composites already open around this node.
  Node::Ptr parse_node(std::size_t depth) {
    if (!expect('(')) return nullptr;
    if (depth == kMaxTreeDepth) return fail("tree nested too deeply");
    const std::string_view head = word();
    if (head == "act") {
      std::size_t svc = 0;
      if (!count(svc)) return nullptr;
      if (!expect(')')) return nullptr;
      return Node::activity(svc);
    }
    if (head == "seq" || head == "par") {
      std::vector<Node::Ptr> children;
      while (!peek(')')) {
        if (at_end()) return fail("unterminated composite");
        Node::Ptr child = parse_node(depth + 1);
        if (child == nullptr) return nullptr;
        children.push_back(std::move(child));
      }
      expect(')');
      if (children.empty()) return fail("empty composite");
      return head == "seq" ? Node::sequence(std::move(children))
                           : Node::parallel(std::move(children));
    }
    if (head == "choice") {
      std::vector<Node::Ptr> children;
      std::vector<double> probs;
      double total = 0.0;
      while (!peek(')')) {
        if (at_end()) return fail("unterminated choice");
        double p = 0.0;
        if (!number(p)) return nullptr;
        if (!(p >= 0.0) || p > 1.0) {
          return fail("choice probability outside [0, 1]");
        }
        total += p;
        probs.push_back(p);
        Node::Ptr child = parse_node(depth + 1);
        if (child == nullptr) return nullptr;
        children.push_back(std::move(child));
      }
      expect(')');
      if (children.empty()) return fail("empty choice");
      if (std::abs(total - 1.0) >= 1e-9) {
        return fail("choice probabilities do not sum to 1");
      }
      return Node::choice(std::move(children), std::move(probs));
    }
    if (head == "loop") {
      double repeat = 0.0;
      if (!number(repeat)) return nullptr;
      if (!(repeat >= 0.0) || repeat >= 1.0) {
        return fail("loop probability outside [0, 1)");
      }
      Node::Ptr body = parse_node(depth + 1);
      if (body == nullptr) return nullptr;
      if (!expect(')')) return nullptr;
      return Node::loop(std::move(body), repeat);
    }
    if (head == "map") {
      std::size_t k_min = 0;
      if (!count(k_min)) return nullptr;
      if (k_min == 0) return fail("map k_min must be a positive integer");
      // Weights run until the body's opening paren.
      std::vector<double> weights;
      double total = 0.0;
      while (!peek('(')) {
        if (at_end()) return fail("unterminated map");
        double w = 0.0;
        if (!number(w)) return nullptr;
        if (!std::isfinite(w) || w < 0.0) {
          return fail("map k weight must be finite and non-negative");
        }
        total += w;
        weights.push_back(w);
      }
      if (weights.empty()) return fail("map needs at least one k weight");
      if (!(total > 0.0)) return fail("map k weights are all zero");
      if (!std::isfinite(total)) return fail("map k weights overflow");
      Node::Ptr body = parse_node(depth + 1);
      if (body == nullptr) return nullptr;
      if (!expect(')')) return nullptr;
      return Node::map(std::move(body), k_min, std::move(weights));
    }
    if (head == "dchoice") {
      std::size_t n_classes = 0;
      std::size_t n_branches = 0;
      if (!count(n_classes) || !count(n_branches)) return nullptr;
      if (n_classes == 0 || n_branches == 0) {
        return fail("dchoice class/branch counts must be positive integers");
      }
      // The counts come from the input: every container below grows one
      // entry per value read, so a huge count fails at the missing value.
      std::vector<double> gammas;
      double gamma_total = 0.0;
      for (std::size_t c = 0; c < n_classes; ++c) {
        double g = 0.0;
        if (!number(g)) return nullptr;
        if (!(g >= 0.0) || g > 1.0) {
          return fail("class probability outside [0, 1]");
        }
        gamma_total += g;
        gammas.push_back(g);
      }
      if (std::abs(gamma_total - 1.0) >= 1e-9) {
        return fail("class probabilities do not sum to 1");
      }
      std::vector<std::vector<double>> rows;
      for (std::size_t c = 0; c < n_classes; ++c) {
        std::vector<double> row;
        double row_total = 0.0;
        for (std::size_t b = 0; b < n_branches; ++b) {
          double p = 0.0;
          if (!number(p)) return nullptr;
          if (!(p >= 0.0) || p > 1.0) {
            return fail("branch probability outside [0, 1]");
          }
          row_total += p;
          row.push_back(p);
        }
        if (std::abs(row_total - 1.0) >= 1e-9) {
          return fail("branch row does not sum to 1");
        }
        rows.push_back(std::move(row));
      }
      std::vector<Node::Ptr> children;
      for (std::size_t b = 0; b < n_branches; ++b) {
        Node::Ptr child = parse_node(depth + 1);
        if (child == nullptr) return nullptr;
        children.push_back(std::move(child));
      }
      if (!expect(')')) return nullptr;
      return Node::data_choice(std::move(children), std::move(gammas),
                               std::move(rows));
    }
    fail("unknown construct '" + std::string(head) + "'");
    return nullptr;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string node_to_text(const Node& node) {
  std::ostringstream out;
  out.precision(17);
  write_node(node, out);
  return out.str();
}

Node::Ptr node_from_text(const std::string& text) {
  std::string error;
  Node::Ptr node = Parser(text).parse(&error);
  KERTBN_EXPECTS(node != nullptr && "malformed workflow tree");
  return node;
}

Node::Ptr try_node_from_text(const std::string& text, std::string* error) {
  return Parser(text).parse(error);
}

std::string workflow_to_text(const Workflow& workflow) {
  std::ostringstream out;
  out.precision(17);
  out << "workflow " << workflow.service_count() << '\n';
  for (std::size_t s = 0; s < workflow.service_count(); ++s) {
    out << "name " << s << ' ' << workflow.service_names()[s] << '\n';
  }
  out << "tree " << node_to_text(*workflow.root()) << '\n';
  return out.str();
}

Workflow workflow_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string keyword;
  std::size_t n = 0;
  in >> keyword >> n;
  KERTBN_EXPECTS(keyword == "workflow");
  std::vector<std::string> names(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t idx = 0;
    in >> keyword >> idx;
    KERTBN_EXPECTS(keyword == "name" && idx < n);
    in >> names[idx];
  }
  in >> keyword;
  KERTBN_EXPECTS(keyword == "tree");
  std::string rest;
  std::getline(in, rest, '\0');
  return Workflow(std::move(names), node_from_text(rest));
}

}  // namespace kertbn::wf
