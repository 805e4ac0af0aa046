#include "adversary/scenario.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rcp::adversary {
namespace {

Scenario base() {
  Scenario s;
  s.protocol = ProtocolKind::malicious;
  s.params = {7, 2};
  s.inputs = alternating_inputs(7);
  s.seed = 3;
  return s;
}

TEST(Scenario, BuildMarksByzantineSlotsFaulty) {
  Scenario s = base();
  s.byzantine_ids = {1, 4};
  auto sim = build(s);
  EXPECT_TRUE(sim->is_faulty(1));
  EXPECT_TRUE(sim->is_faulty(4));
  EXPECT_FALSE(sim->is_faulty(0));
  EXPECT_EQ(sim->correct_ids().size(), 5u);
}

TEST(Scenario, BuildValidatesInputs) {
  Scenario s = base();
  s.inputs.pop_back();
  EXPECT_THROW((void)build(s), PreconditionError);
  s = base();
  s.byzantine_ids = {7};
  EXPECT_THROW((void)build(s), PreconditionError);
}

TEST(Scenario, BuildValidatesResilienceUnlessUnchecked) {
  Scenario s = base();
  s.params = {7, 3};  // beyond floor((7-1)/3)
  EXPECT_THROW((void)build(s), PreconditionError);
  s.unchecked = true;
  EXPECT_NO_THROW((void)build(s));
}

TEST(Scenario, CrashPlanApplied) {
  Scenario s = base();
  s.protocol = ProtocolKind::fail_stop;
  s.params = {7, 3};
  s.crashes.add_step_crash(2, 0);
  auto sim = build(s);
  sim->start();
  EXPECT_FALSE(sim->alive(2));
}

TEST(Scenario, AllProtocolKindsBuildAndRun) {
  for (const auto kind :
       {ProtocolKind::fail_stop, ProtocolKind::malicious,
        ProtocolKind::majority}) {
    Scenario s = base();
    s.protocol = kind;
    s.params = {7, kind == ProtocolKind::fail_stop ? 3u : 2u};
    auto sim = build(s);
    const auto result = sim->run();
    EXPECT_EQ(result.status, sim::RunStatus::all_decided) << to_string(kind);
    EXPECT_TRUE(sim->agreement_holds());
  }
}

TEST(InputPatterns, Shapes) {
  EXPECT_THROW((void)inputs_with_ones(3, 4), PreconditionError);
  const auto ones = inputs_with_ones(5, 2);
  EXPECT_EQ(ones, (std::vector<Value>{Value::one, Value::one, Value::zero,
                                      Value::zero, Value::zero}));
  const auto alt = alternating_inputs(4);
  EXPECT_EQ(alt, (std::vector<Value>{Value::zero, Value::one, Value::zero,
                                     Value::one}));
  Rng rng(5);
  const auto rnd = random_inputs(50, rng);
  EXPECT_EQ(rnd.size(), 50u);
  int count_ones = 0;
  for (const Value v : rnd) {
    count_ones += v == Value::one ? 1 : 0;
  }
  EXPECT_GT(count_ones, 10);
  EXPECT_LT(count_ones, 40);
}

TEST(Scenario, ProtocolKindNames) {
  EXPECT_STREQ(to_string(ProtocolKind::fail_stop), "fail-stop (Fig 1)");
  EXPECT_STREQ(to_string(ProtocolKind::malicious), "malicious (Fig 2)");
  EXPECT_STREQ(to_string(ProtocolKind::majority), "majority variant (S4.1)");
}

TEST(Scenario, TokensRoundTrip) {
  for (const auto& e : kProtocolNames) {
    EXPECT_EQ(parse_protocol(token(e.kind)), e.kind) << e.token;
  }
  for (const auto& e : kByzantineNames) {
    EXPECT_EQ(parse_byzantine(token(e.kind)), e.kind) << e.token;
  }
  EXPECT_EQ(parse_protocol("fig3"), std::nullopt);
  EXPECT_EQ(parse_byzantine("none"), std::nullopt);
  // Command lines name the zoo; only plan files carry a scripted cast.
  for (const auto& e : kZooNames) {
    EXPECT_NE(e.kind, ByzantineKind::scripted);
  }
  EXPECT_EQ(kZooNames.size() + 1, kByzantineNames.size());
}

TEST(Scenario, MakeProcessFillsByzantineSlotsWithTheStrategy) {
  Scenario s = base();
  s.byzantine_ids = {2};
  s.byzantine_kind = ByzantineKind::silent;
  EXPECT_NE(dynamic_cast<SilentByzantine*>(make_process(s, 2).get()),
            nullptr);
  EXPECT_EQ(dynamic_cast<SilentByzantine*>(make_process(s, 3).get()),
            nullptr);
  EXPECT_THROW((void)make_process(s, 7), PreconditionError);
}

}  // namespace
}  // namespace rcp::adversary
