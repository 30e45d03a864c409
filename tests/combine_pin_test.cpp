// Pinned hashes of a combine-heavy, compacting run.
//
// The long_haul pack's unbounded churn (8 deletes + 8 inserts per step on a
// ~1000-node population, compact=3), cut to 400 steps, combines on a large
// share of its deletions before and after closing an id epoch. The golden corpus
// and the pack batch smoke never mix the two, so a change to the combine
// path (member gathering, foreign-bridge release, the per-node secondary
// table) or to its interaction with id remapping that moves a single rng
// draw fails here. The constants were recorded before the combine path was
// rewritten for speed and must not move with a behaviour-neutral change.
// The claim counters (edges added / removed) and rebuilds pin the claim
// layer under the same churn. The dist and lossy variants pin the whole
// protocol bill (messages, rounds, retries) of the floods and installs that
// read each cloud's claim set, lossless and under loss; the network
// simulator must not move it.
//
// To re-record after an *intentional* semantic change, run each variant
// through `xheal_run run` (the spec text is built by `variant()` below) and
// copy the printed trace / fingerprint, explaining the drift in the commit.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "scenario/runner.hpp"

namespace {

using xheal::scenario::ScenarioRunner;
using xheal::scenario::ScenarioSpec;

std::string read_pack_spec() {
    std::ifstream in(std::string(XHEAL_REPO_DIR) +
                     "/scenarios/packs/long_haul/unbounded_churn.scn");
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

void replace_once(std::string& text, const std::string& from, const std::string& to) {
    std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << "pack spec no longer contains '" << from << "'";
    text.replace(at, from.size(), to);
}

struct Variant {
    const char* label;
    unsigned seed;
    const char* healer;       ///< replaces "healer xheal d=2"
    const char* phase_extra;  ///< appended to the phase line
    std::uint64_t trace_hash;
    std::uint64_t fingerprint;
    std::size_t combines;       ///< deterministic work counters
    std::size_t edges_added;
    std::size_t edges_removed;
    std::size_t rebuilds;
    std::size_t messages;  ///< protocol bill (0 for the in-process healer)
    std::size_t rounds;    ///< synchronous rounds of that bill
    std::size_t retries;   ///< loss-forced re-sends (0 on a lossless network)
};

constexpr Variant kVariants[] = {
    {"seed1", 1, "healer xheal d=2", "", 0x2f10e6f67a74ea0cull, 0xd6fba94546902205ull,
     1322, 309778, 287141, 144, 0, 0, 0},
    {"seed2", 2, "healer xheal d=2", "", 0x3b86e2e72ea97807ull, 0x56817a44f8482829ull,
     1319, 336256, 313288, 127, 0, 0, 0},
    {"seed3", 3, "healer xheal d=2", "", 0x89669fe4cf255ff4ull, 0x28c29ccf372d84c9ull,
     1296, 290089, 267427, 126, 0, 0, 0},
    // Same adversary stream as seed1 (the random deleter ignores the
    // healer), different repair: one structural flush per 8 deletions.
    {"batch8", 1, "healer xheal d=2", " batch=8", 0x2f10e6f67a74ea0cull,
     0x29cc75574cd9f8a8ull, 123, 97656, 75252, 190, 0, 0, 0},
    // The message-passing healer reaches seed1's repaired graph.
    {"dist", 1, "healer xheal-dist d=2", "", 0x2f10e6f67a74ea0cull, 0xd6fba94546902205ull,
     1322, 309778, 287141, 144, 1221206, 30115, 0},
    // Under loss the combine flood and every topology install read the
    // cloud's claim set; dropped messages are re-sent (retries).
    {"lossy", 1, "healer xheal-dist d=2 drop=0.05 latency=1", "", 0x2f10e6f67a74ea0cull,
     0xd6fba94546902205ull, 1322, 309778, 287141, 144, 2149757, 152728, 86430},
};

void PrintTo(const Variant& v, std::ostream* os) { *os << v.label; }

/// The pack spec cut to 400 steps (compact=3 kept), reseeded, with the
/// variant's healer and extra phase keys.
std::string variant(const Variant& v) {
    std::string text = read_pack_spec();
    replace_once(text, "seed 1109", "seed " + std::to_string(v.seed));
    replace_once(text, "healer xheal d=2", v.healer);
    replace_once(text, "steps=125000", "steps=400");
    replace_once(text, "min_nodes=500 compact=3",
                 std::string("min_nodes=500 compact=3") + v.phase_extra);
    return text;
}

class CombinePin : public ::testing::TestWithParam<Variant> {};

TEST_P(CombinePin, TraceHashAndFingerprintArePinned) {
    const Variant& v = GetParam();
    auto spec = ScenarioSpec::parse(variant(v));
    auto result = ScenarioRunner(spec).run();
    ASSERT_TRUE(result.passed()) << result.failures.front();
    // The pin is only meaningful if the run mixes combines and compaction.
    ASSERT_EQ(result.phases.size(), 1u);
    EXPECT_GT(result.phases[0].totals.combines, 100u);
    EXPECT_GE(result.compactions, 1u);
    const auto& totals = result.phases[0].totals;
    EXPECT_EQ(totals.combines, v.combines);
    EXPECT_EQ(totals.edges_added, v.edges_added);
    EXPECT_EQ(totals.edges_removed, v.edges_removed);
    EXPECT_EQ(totals.rebuilds, v.rebuilds);
    EXPECT_EQ(result.final_sample.messages, v.messages);
    EXPECT_EQ(result.final_sample.rounds, v.rounds);
    EXPECT_EQ(result.final_sample.retries, v.retries);
    EXPECT_EQ(result.trace_hash, v.trace_hash)
        << std::hex << "got 0x" << result.trace_hash;
    EXPECT_EQ(result.fingerprint, v.fingerprint)
        << std::hex << "got 0x" << result.fingerprint;
}

INSTANTIATE_TEST_SUITE_P(UnboundedChurn400, CombinePin, ::testing::ValuesIn(kVariants),
                         [](const ::testing::TestParamInfo<Variant>& info) {
                             return std::string(info.param.label);
                         });

}  // namespace
