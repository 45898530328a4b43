// Seeded byte-mutation tests for the three durable text readers: model
// text (kert/serialize), checkpoint files (durable/checkpoint) and journal
// payloads (durable/recovery). Each input is damaged by truncation, byte
// flips, byte insertions and token deletions drawn from splitmix64, the
// generator FaultInjector keys its decisions with (support/mutation.hpp;
// WorkflowSerialize damages the workflow grammar on its own the same way).
//
// The contract: every input gives an error by value or a value, never an
// abort, a throw or a sanitizer report (the suite runs under ASan and
// UBSan), and every accepted model re-saves to a fixed point.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/text_codec.hpp"
#include "durable/checkpoint.hpp"
#include "durable/crc32c.hpp"
#include "durable/recovery.hpp"
#include "kert/kert_builder.hpp"
#include "kert/model_manager.hpp"
#include "kert/serialize.hpp"
#include "sosim/synthetic.hpp"
#include "support/mutation.hpp"

namespace kertbn::durable {
namespace {

namespace fs = std::filesystem;
using test_support::mutate;
using test_support::SplitMix64;

std::string resave(const core::SavedModel& model) {
  if (model.bins == 0) {
    return core::save_to_string(model.workflow, model.sharing, model.net);
  }
  return core::save_discrete_to_string(model.workflow, model.sharing,
                                       *model.discretizer, model.leak,
                                       model.net);
}

/// Loads \p text; an accepted model must re-save to a fixed point.
/// Returns whether it was accepted.
bool check_model_contract(std::string_view text) {
  const core::LoadResult loaded = core::try_load_from_string(text);
  if (!loaded.has_value()) {
    EXPECT_FALSE(loaded.error().message.empty());
    return false;
  }
  const std::string once = resave(*loaded);
  const core::LoadResult again = core::try_load_from_string(once);
  EXPECT_TRUE(again.has_value()) << again.error().message;
  if (again.has_value()) EXPECT_EQ(resave(*again), once);
  return true;
}

/// eDiaMoND model text from the manager's own export: 0 bins is the
/// continuous model.
std::string ediamond_model_text(std::size_t bins, std::uint64_t seed) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  core::ModelManager::Config config;
  config.bins = bins;
  core::ModelManager manager(env.workflow(), env.sharing(), config);
  kertbn::Rng rng(seed);
  manager.reconstruct(60.0, env.generate(60, rng));
  return manager.export_model_text();
}

/// Applies \p mutations seeded mutations (one to three each) to \p text and
/// checks the model contract; returns how many were accepted.
std::size_t mutate_model(const std::string& text, std::uint64_t seed,
                         std::size_t mutations) {
  SplitMix64 rng(seed);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < mutations; ++i) {
    std::string damaged = text;
    const std::size_t rounds = 1 + rng.below(3);
    for (std::size_t r = 0; r < rounds; ++r) damaged = mutate(damaged, rng);
    SCOPED_TRACE("mutation " + std::to_string(i));
    accepted += check_model_contract(damaged) ? 1 : 0;
  }
  return accepted;
}

TEST(ByteMutation, ContinuousModelTruncatedAtEveryByte) {
  const std::string text = ediamond_model_text(0, 1);
  ASSERT_TRUE(check_model_contract(text));
  // "end" is the last token: every cut before it is refused.
  const std::size_t end_at = text.rfind("end");
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    const bool accepted = check_model_contract(text.substr(0, cut));
    EXPECT_EQ(accepted, cut >= end_at + 3) << "cut at " << cut;
  }
}

TEST(ByteMutation, FourBinModelTruncatedAtAStride) {
  const std::string text = ediamond_model_text(4, 2);
  ASSERT_GT(text.size(), 100000u);
  for (std::size_t cut = 0; cut < text.size(); cut += 499) {
    EXPECT_FALSE(check_model_contract(text.substr(0, cut)))
        << "cut at " << cut;
  }
}

TEST(ByteMutation, ModelTextSurvivesSeededMutations) {
  const std::size_t continuous =
      mutate_model(ediamond_model_text(0, 3), 0xC0FFEE01, 2000);
  const std::size_t three = mutate_model(ediamond_model_text(3, 4),
                                         0xC0FFEE02, 1000);
  const std::size_t four = mutate_model(ediamond_model_text(4, 5),
                                        0xC0FFEE03, 200);
  // Mutations land in numbers often enough that some damaged models are
  // still models; the fixed-point check ran on each of those.
  EXPECT_GT(continuous, 0u);
  EXPECT_GT(three, 0u);
  EXPECT_GT(four, 0u);
}

// ----- checkpoints ---------------------------------------------------------

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("kertbn_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A written checkpoint of a populated server and a continuous model.
std::string checkpoint_file_bytes(const fs::path& dir) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  sim::ManagementServer server(env.workflow().service_names(),
                               sim::ModelSchedule{});
  kertbn::Rng rng(8);
  const bn::Dataset rows = env.generate(12, rng);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    sim::AgentReport report;
    for (std::size_t s = 0; s + 1 < rows.cols(); ++s) {
      if ((r + s) % 5 != 0) {
        report.service_means.push_back({s, rows.value(r, s)});
      }
    }
    server.ingest_interval({report}, rows.value(r, rows.cols() - 1));
  }
  server.note_missed_interval();
  core::ModelManager manager(env.workflow(), env.sharing(),
                             core::ModelManager::Config{});
  manager.reconstruct(60.0, env.generate(60, rng));
  CheckpointStore store(CheckpointStore::Config{dir.string()});
  store.write(capture_checkpoint(server, manager, 130.5, 77));
  const std::optional<std::string> bytes = text::read_file(store.files()[0]);
  EXPECT_TRUE(bytes.has_value());
  return bytes.value_or("");
}

/// \p body with the footer the writer would give it, so the parser (not
/// the CRC check) meets the damage.
std::string with_footer(const std::string& body) {
  text::Writer out;
  out << body << "crc ";
  out.hex(mask_crc(crc32c(body)), 8) << '\n';
  return std::move(out.str());
}

/// Writes \p bytes as a checkpoint file and loads it; an accepted
/// checkpoint must be internally consistent, and its model must satisfy
/// the model contract.
bool check_checkpoint_contract(const fs::path& path,
                               const std::string& bytes) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::string error;
  const std::optional<Checkpoint> ckpt =
      load_checkpoint_file(path.string(), &error);
  if (!ckpt.has_value()) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  EXPECT_EQ(ckpt->server.window.size(),
            ckpt->server.rows * ckpt->server.cols);
  if (!ckpt->manager.model_text.empty()) {
    check_model_contract(ckpt->manager.model_text);
  }
  return true;
}

TEST(ByteMutation, CheckpointTruncatedAtEveryByte) {
  const fs::path dir = fresh_dir("mutation_ckpt_cut");
  const std::string file = checkpoint_file_bytes(dir);
  const std::string body = file.substr(0, file.rfind("crc "));
  const fs::path path = dir / "damaged.ck";
  ASSERT_TRUE(check_checkpoint_contract(path, file));
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(
        check_checkpoint_contract(path, with_footer(body.substr(0, cut))))
        << "cut at " << cut;
    // Without a fresh footer the CRC refuses every cut.
    EXPECT_FALSE(check_checkpoint_contract(path, file.substr(0, cut)));
  }
}

TEST(ByteMutation, CheckpointSurvivesSeededMutations) {
  const fs::path dir = fresh_dir("mutation_ckpt_seeded");
  const std::string file = checkpoint_file_bytes(dir);
  const std::string body = file.substr(0, file.rfind("crc "));
  const fs::path path = dir / "damaged.ck";
  SplitMix64 rng(0xC0FFEE04);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    std::string damaged = body;
    const std::size_t rounds = 1 + rng.below(3);
    for (std::size_t r = 0; r < rounds; ++r) damaged = mutate(damaged, rng);
    SCOPED_TRACE("mutation " + std::to_string(i));
    accepted += check_checkpoint_contract(path, with_footer(damaged)) ? 1 : 0;
    // Damage to the whole file, footer included, must be caught as well.
    check_checkpoint_contract(path, mutate(file, rng));
  }
  EXPECT_GT(accepted, 0u);
}

/// Tokens outside the number language, which no writer emits: refused
/// wherever a number goes.
constexpr const char* kRefusedNumbers[] = {"inf", "nan",    "1e400", "0x10",
                                           "+1",  "1e-400", "1.5abc"};

/// Replaces the token that follows \p after in \p text with \p token.
std::string replace_token_after(std::string text, const std::string& after,
                                const std::string& token) {
  const std::size_t at = text.find(after);
  EXPECT_NE(at, std::string::npos) << after;
  const std::size_t begin = at + after.size();
  const std::size_t end = text.find_first_of(" \n", begin);
  return text.replace(begin, end - begin, token);
}

/// \p text with the s-expression of its tree line wrapped in a loop that
/// repeats with probability \p prob.
std::string loop_tree(std::string text, const std::string& prob) {
  const std::size_t at = text.find("\ntree ") + 6;
  text.insert(text.find('\n', at), ")");
  return text.insert(at, "(loop " + prob + " ");
}

TEST(ByteMutation, EveryReaderRefusesTokensOutsideTheNumberLanguage) {
  const std::string model = ediamond_model_text(0, 7);
  const std::size_t act = model.find("(act 0)");
  ASSERT_NE(act, std::string::npos);
  ASSERT_TRUE(core::try_load_from_string(loop_tree(model, "0.5")).has_value());
  const fs::path dir = fresh_dir("mutation_refused_tokens");
  const std::string file = checkpoint_file_bytes(dir);
  const std::string body = file.substr(0, file.rfind("crc "));
  const std::size_t seen = body.find("\nseen ") + 6;
  const std::string seen_count =
      body.substr(seen, body.find(' ', seen) - seen);
  const std::string payload =
      encode_ingest({{0, {{0, 1.5}, {1, 2.25}}}}, 4.125);
  IngestEvent event;
  ASSERT_TRUE(decode_event(payload, event));
  ASSERT_TRUE(check_checkpoint_contract(dir / "bad.ck", with_footer(body)));

  for (const char* token : kRefusedNumbers) {
    SCOPED_TRACE(token);
    EXPECT_FALSE(core::try_load_from_string(
                     replace_token_after(model, "\nleak ", token))
                     .has_value());
    // The tree line: an activity index (a count) and a loop's repeat
    // probability (a number).
    std::string bad_index = model;
    bad_index.replace(act, 7, std::string("(act ") + token + ")");
    EXPECT_FALSE(core::try_load_from_string(bad_index).has_value());
    EXPECT_FALSE(
        core::try_load_from_string(loop_tree(model, token)).has_value());
    EXPECT_FALSE(check_checkpoint_contract(
        dir / "bad.ck",
        with_footer(replace_token_after(body, "\nnow ", token))));
    EXPECT_FALSE(check_checkpoint_contract(
        dir / "bad.ck",
        with_footer(replace_token_after(body, "\nseen " + seen_count + " ",
                                        token))));
    EXPECT_FALSE(
        decode_event(replace_token_after(payload, "ingest ", token), event));
  }
}

// ----- journal payloads ----------------------------------------------------

TEST(ByteMutation, JournalPayloadsSurviveSeededMutations) {
  SplitMix64 rng(0xC0FFEE05);
  std::vector<std::string> payloads = {encode_missed()};
  for (std::size_t p = 0; p < 8; ++p) {
    std::vector<sim::AgentReport> reports(1 + rng.below(3));
    for (std::size_t a = 0; a < reports.size(); ++a) {
      reports[a].agent = a;
      for (std::size_t s = 0; s < 1 + rng.below(4); ++s) {
        reports[a].service_means.push_back(
            {s, double(rng.next() >> 11) * 0x1.0p-40});
      }
    }
    payloads.push_back(encode_ingest(reports, double(rng.next() >> 20)));
  }
  std::size_t accepted = 0;
  for (const std::string& payload : payloads) {
    IngestEvent event;
    ASSERT_TRUE(decode_event(payload, event)) << payload;
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      decode_event(std::string_view(payload).substr(0, cut), event);
    }
    for (std::size_t i = 0; i < 500; ++i) {
      const std::string damaged = mutate(payload, rng);
      if (!decode_event(damaged, event)) continue;
      ++accepted;
      // An accepted payload re-encodes to a fixed point.
      const std::string once = event.missed
                                   ? encode_missed()
                                   : encode_ingest(event.reports,
                                                   event.response_mean);
      IngestEvent again;
      ASSERT_TRUE(decode_event(once, again)) << once;
      EXPECT_EQ(again.missed ? encode_missed()
                             : encode_ingest(again.reports,
                                             again.response_mean),
                once);
    }
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace kertbn::durable
