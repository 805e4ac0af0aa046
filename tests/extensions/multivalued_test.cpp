// Multivalued consensus: agreement on arbitrary byte strings, including
// against equivocating proposers.
#include "extensions/multivalued.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adversary/byzantine.hpp"
#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace rcp {
namespace {

using ext::MultiValuedConsensus;
using ext::ProposalRb;

Bytes bytes_of(const std::string& s) {
  Bytes b;
  for (const char c : s) {
    b.push_back(static_cast<std::byte>(c));
  }
  return b;
}

std::string string_of(const Bytes& b) {
  std::string s;
  for (const auto byte : b) {
    s += static_cast<char>(byte);
  }
  return s;
}

/// A Byzantine proposer that tells each half of the system a different
/// proposal (reliable broadcast must prevent both from winning).
class TwoFacedProposer final : public sim::Process {
 public:
  void on_start(sim::Context& ctx) override {
    for (ProcessId q = 0; q < ctx.n(); ++q) {
      const auto body =
          q < ctx.n() / 2 ? bytes_of("evil-left") : bytes_of("evil-right");
      ctx.send(q, ProposalRb::encode_initial(ctx.self(), body));
    }
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}
};

struct MvRun {
  std::unique_ptr<sim::Simulation> simulation;
  std::vector<MultiValuedConsensus*> correct;
};

template <typename MakeByz>
MvRun make_mv(std::uint32_t n, std::uint32_t k, std::uint32_t byz,
              std::uint64_t seed, MakeByz&& make_byz) {
  std::vector<std::unique_ptr<sim::Process>> procs;
  std::vector<MultiValuedConsensus*> correct;
  for (ProcessId p = 0; p < n; ++p) {
    if (p < byz) {
      procs.push_back(make_byz());
      continue;
    }
    auto m = MultiValuedConsensus::make(
        {n, k}, bytes_of("proposal-" + std::to_string(p)));
    correct.push_back(m.get());
    procs.push_back(std::move(m));
  }
  auto s = std::make_unique<sim::Simulation>(
      sim::SimConfig{.n = n, .seed = seed, .max_steps = 8'000'000},
      std::move(procs));
  for (ProcessId p = 0; p < byz; ++p) {
    s->mark_faulty(p);
  }
  return MvRun{std::move(s), std::move(correct)};
}

void expect_common_decision(const MvRun& run, std::uint64_t seed) {
  std::optional<Bytes> first;
  for (auto* m : run.correct) {
    const auto d = m->decided_proposal();
    ASSERT_TRUE(d.has_value()) << "seed " << seed;
    if (first.has_value()) {
      EXPECT_EQ(string_of(*first), string_of(*d)) << "seed " << seed;
    }
    first = d;
  }
}

TEST(MultiValued, FactoryValidates) {
  EXPECT_NO_THROW(MultiValuedConsensus::make({7, 2}, bytes_of("x")));
  EXPECT_THROW(MultiValuedConsensus::make({7, 3}, bytes_of("x")),
               PreconditionError);
  EXPECT_THROW(MultiValuedConsensus::make({7, 2}, Bytes(70'000)),
               PreconditionError);
}

TEST(MultiValued, FaultFreeAgreesOnSomeProposal) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto run = make_mv(7, 2, 0, seed, [] {
      return std::unique_ptr<sim::Process>();
    });
    const auto result = run.simulation->run();
    ASSERT_EQ(result.status, sim::RunStatus::all_decided) << "seed " << seed;
    expect_common_decision(run, seed);
    // Validity: the decided bytes are some process's actual proposal.
    const auto d = string_of(*run.correct[0]->decided_proposal());
    EXPECT_EQ(d.rfind("proposal-", 0), 0u) << d;
  }
}

TEST(MultiValued, SilentByzantineSlotsAreSweptOver) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto run = make_mv(7, 2, 2, seed, [] {
      return std::make_unique<adversary::SilentByzantine>();
    });
    const auto result = run.simulation->run();
    ASSERT_EQ(result.status, sim::RunStatus::all_decided) << "seed " << seed;
    expect_common_decision(run, seed);
    // The winner must be a correct origin (silent ones never deliver).
    ASSERT_TRUE(run.correct[0]->winning_origin().has_value());
    EXPECT_GE(*run.correct[0]->winning_origin(), 2u);
  }
}

TEST(MultiValued, TwoFacedProposerCannotSplitTheValue) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto run = make_mv(7, 2, 1, seed, [] {
      return std::make_unique<TwoFacedProposer>();
    });
    const auto result = run.simulation->run();
    ASSERT_EQ(result.status, sim::RunStatus::all_decided) << "seed " << seed;
    expect_common_decision(run, seed);
    // If the Byzantine slot somehow won, every correct process must hold
    // the SAME version of its proposal (RB consistency); they can never
    // split between evil-left and evil-right.
  }
}

TEST(MultiValued, MinimalByzantineConfiguration) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto run = make_mv(4, 1, 1, seed, [] {
      return std::make_unique<adversary::SilentByzantine>();
    });
    const auto result = run.simulation->run();
    ASSERT_EQ(result.status, sim::RunStatus::all_decided) << "seed " << seed;
    expect_common_decision(run, seed);
  }
}

TEST(MultiValued, LargeProposalsSurvive) {
  Bytes big(8 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i * 31 % 251);
  }
  std::vector<std::unique_ptr<sim::Process>> procs;
  std::vector<MultiValuedConsensus*> raw;
  for (ProcessId p = 0; p < 4; ++p) {
    auto m = MultiValuedConsensus::make({4, 1}, big);
    raw.push_back(m.get());
    procs.push_back(std::move(m));
  }
  sim::Simulation s(sim::SimConfig{.n = 4, .seed = 3, .max_steps = 4'000'000},
                    std::move(procs));
  const auto result = s.run();
  ASSERT_EQ(result.status, sim::RunStatus::all_decided);
  for (auto* m : raw) {
    ASSERT_TRUE(m->decided_proposal().has_value());
    EXPECT_EQ(*m->decided_proposal(), big);
  }
}

TEST(ProposalRbUnit, ForgedInitialIgnored) {
  ProposalRb rb({7, 2});
  const auto out = rb.handle(3, ProposalRb::encode_initial(2, bytes_of("x")));
  EXPECT_TRUE(out.to_broadcast.empty());
  EXPECT_FALSE(out.delivered.has_value());
}

TEST(ProposalRbUnit, GarbageThrowsDecodeError) {
  ProposalRb rb({7, 2});
  EXPECT_THROW((void)rb.handle(0, Bytes{std::byte{50}}), DecodeError);
  // Length field longer than the actual body.
  Bytes bad = ProposalRb::encode_initial(0, bytes_of("abc"));
  bad.pop_back();
  EXPECT_THROW((void)rb.handle(0, bad), DecodeError);
}

TEST(ProposalRbUnit, EchoOncePerEchoerEvenAcrossVersions) {
  ProposalRb rb({7, 2});
  // Echoer 0 echoes two different versions for origin 6: only the first
  // counts, so neither version can ever profit from double voting.
  Bytes e1 = ProposalRb::encode_initial(6, bytes_of("v1"));
  e1[0] = std::byte{51};  // rewrite tag: initial -> echo
  Bytes e2 = ProposalRb::encode_initial(6, bytes_of("v2"));
  e2[0] = std::byte{51};
  (void)rb.handle(0, e1);
  (void)rb.handle(0, e2);
  // Four more echoers for v1 reach the threshold of 5 and emit READY.
  bool ready_seen = false;
  for (ProcessId p = 1; p <= 4; ++p) {
    const auto out = rb.handle(p, e1);
    ready_seen |= !out.to_broadcast.empty();
  }
  EXPECT_TRUE(ready_seen);
}

TEST(ProposalRbUnit, OriginOutsideProcessSpaceIsDropped) {
  constexpr core::ConsensusParams kParams{7, 2};
  ProposalRb rb(kParams);
  // 2k+1 distinct readies would deliver for a real origin; origin n names
  // no process, so none of them may create an instance or deliver.
  Bytes ready = ProposalRb::encode_initial(kParams.n, bytes_of("ghost"));
  ready[0] = std::byte{52};  // rewrite tag: initial -> ready
  for (ProcessId p = 0; p < kParams.ready_delivery_threshold(); ++p) {
    const auto out = rb.handle(p, ready);
    EXPECT_TRUE(out.to_broadcast.empty());
    EXPECT_FALSE(out.delivered.has_value());
  }
  EXPECT_FALSE(rb.delivered(kParams.n).has_value());
  EXPECT_EQ(rb.delivered_count(), 0u);
}

}  // namespace
}  // namespace rcp
