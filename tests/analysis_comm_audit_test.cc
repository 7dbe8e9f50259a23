// Schedule-driven communication accounting: the closed-form CommModel
// predictions, summed per phase off the schedule graph's topic tags, must
// equal the payload bytes a channel-tap audit measures on a real run — to
// the byte, for every schema type and masking mode (paper experiments
// E8-E10, now keyed to the graph instead of hand-enumerated messages).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/comm_model.h"
#include "core/schedule.h"
#include "data/generators.h"
#include "data/partition.h"
#include "session_test_util.h"

namespace ppc {
namespace {

using testutil::MakeSession;
using testutil::MatricesOf;
using testutil::SessionFixture;

void ExpectModelMatchesAudit(const LabeledDataset& data, size_t parties,
                             ProtocolConfig config) {
  // Resolve the PPC_TILE_SIZE override exactly as MakeSession will below,
  // so the graph we price is the graph the session executes.
  if (config.tile_size == 0) {
    config.tile_size = testutil::TileSizeFromEnv();
  }
  auto parts = Partitioner::RoundRobin(data, parties).TakeValue();
  const Schema& schema = data.data.schema();

  SessionPlan plan;
  for (size_t i = 0; i < parties; ++i) {
    plan.holder_order.push_back(SessionFixture::HolderName(i));
  }
  // The prediction must price the graph the run executes — tiled when the
  // config tiles (per-tile headers are part of the closed form).
  Schedule::Options options;
  options.tile_size = config.tile_size;
  options.masking = config.masking_mode;
  if (config.tile_size > 0) {
    for (const auto& part : parts) {
      options.holder_objects.push_back(part.data.NumRows());
    }
  }
  Schedule schedule = Schedule::Build(plan, schema, options).TakeValue();

  std::map<std::string, HolderTrafficProfile> profiles;
  for (size_t p = 0; p < parts.size(); ++p) {
    HolderTrafficProfile& profile = profiles[plan.holder_order[p]];
    profile.objects = parts[p].data.NumRows();
    for (size_t c = 0; c < schema.size(); ++c) {
      if (schema.attribute(c).type != AttributeType::kAlphanumeric) continue;
      auto strings = parts[p].data.StringColumn(c).TakeValue();
      for (const std::string& s : strings) {
        profile.string_lengths[c].push_back(s.size());
      }
    }
  }
  auto predicted =
      ScheduleCommModel::PredictPhasePayloads(schedule, config, profiles);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();

  auto fixture = MakeSession(schema, MatricesOf(parts), config).TakeValue();
  ScheduleTrafficAudit audit;
  audit.Attach(fixture.network.get(), schedule);
  ASSERT_TRUE(fixture.session->Run().ok());

  auto totals = audit.PhaseTotals();
  // Phases 4 and 5 have closed forms and must match exactly; whether each
  // exists depends on the schema.
  for (const auto& [phase, bytes] : *predicted) {
    ASSERT_TRUE(totals.count(phase)) << "no measured traffic in phase "
                                     << phase;
    EXPECT_EQ(totals[phase].payload_bytes, bytes) << "phase " << phase;
  }
  // Setup traffic is measured (but unmodeled): hellos/roster and DH always
  // flow.
  ASSERT_TRUE(totals.count(1));
  ASSERT_TRUE(totals.count(2));
  EXPECT_EQ(totals[1].messages, 2 * parties);
  EXPECT_GT(totals[2].wire_bytes, 0u);
  // Wire bytes exceed payload bytes by exactly the framing overhead.
  for (const auto& [phase, traffic] : totals) {
    EXPECT_EQ(traffic.wire_bytes - traffic.payload_bytes,
              24 * traffic.messages)
        << "phase " << phase;
  }
}

TEST(ScheduleCommModelTest, NumericBothMaskingModes) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 11);
  LabeledDataset data =
      Generators::GaussianMixture(
          18, {{{0.0, 0.0}, 1.0, 1.0}, {{8.0, 8.0}, 1.0, 1.0}}, prng.get())
          .TakeValue();
  ProtocolConfig config;
  ExpectModelMatchesAudit(data, 3, config);
  config.masking_mode = MaskingMode::kPerPair;
  ExpectModelMatchesAudit(data, 3, config);
}

TEST(ScheduleCommModelTest, MixedSchema) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 12);
  Generators::MixedOptions options;
  options.string_length = 9;
  LabeledDataset data =
      Generators::MixedClusters(15, options, Alphabet::Dna(), prng.get())
          .TakeValue();
  ExpectModelMatchesAudit(data, 3, ProtocolConfig{});
}

TEST(ScheduleCommModelTest, DnaSchema) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 13);
  LabeledDataset data =
      Generators::DnaSequences(12, {}, prng.get()).TakeValue();
  ExpectModelMatchesAudit(data, 2, ProtocolConfig{});
}

// Tiled runs: the per-tile headers change the byte totals, and the model
// must still reconcile to the byte — across tile sizes that do and do not
// divide the partitions, both masking modes, and every schema type.
TEST(ScheduleCommModelTest, TiledNumericBothMaskingModes) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 14);
  LabeledDataset data =
      Generators::GaussianMixture(
          19, {{{0.0, 0.0}, 1.0, 1.0}, {{8.0, 8.0}, 1.0, 1.0}}, prng.get())
          .TakeValue();
  for (size_t tile : {1ul, 3ul, 5ul, 64ul}) {
    ProtocolConfig config;
    config.tile_size = tile;
    ExpectModelMatchesAudit(data, 3, config);
    config.masking_mode = MaskingMode::kPerPair;
    ExpectModelMatchesAudit(data, 3, config);
  }
}

TEST(ScheduleCommModelTest, TiledMixedSchema) {
  auto prng = MakePrng(PrngKind::kXoshiro256, 15);
  Generators::MixedOptions options;
  options.string_length = 7;
  LabeledDataset data =
      Generators::MixedClusters(14, options, Alphabet::Dna(), prng.get())
          .TakeValue();
  for (size_t tile : {2ul, 5ul}) {
    ProtocolConfig config;
    config.tile_size = tile;
    ExpectModelMatchesAudit(data, 3, config);
  }
}

TEST(ScheduleCommModelTest, MissingProfileIsAnError) {
  Schema schema =
      Schema::Create({{"v", AttributeType::kInteger}}).TakeValue();
  SessionPlan plan;
  plan.holder_order = {"A", "B"};
  Schedule schedule = Schedule::Build(plan, schema).TakeValue();
  std::map<std::string, HolderTrafficProfile> profiles;
  profiles["A"].objects = 4;  // B missing.
  EXPECT_EQ(ScheduleCommModel::PredictPhasePayloads(schedule,
                                                    ProtocolConfig{},
                                                    profiles)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppc
