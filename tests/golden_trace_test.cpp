// Golden-trace corpus: three small recorded runs checked in under
// tests/data/, with their stream hashes and final-graph fingerprints
// pinned *in this file*. Any drift in the trace format (writer or parser),
// the event-hash encoding, the graph fingerprint, the engine's rng
// consumption order, or a healer's repair decisions fails here loudly
// instead of silently invalidating every previously recorded replay.
//
// To regenerate after an *intentional* semantic change:
//   build/xheal_run run tests/data/golden_<name>.scn \
//       --trace tests/data/golden_<name>.jsonl
// and update the pinned constants below in the same commit, explaining the
// drift in the commit message.
//
// Portability caveat: util::Rng draws through std::uniform_*_distribution,
// whose engine consumption is implementation-defined, so the pinned values
// (like every recorded trace and CI verdict in this repo) are tied to
// libstdc++ — the toolchain CI pins. On another standard library this
// suite failing wholesale means stream divergence, not format drift.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scenario/runner.hpp"
#include "scenario/trace.hpp"

using namespace xheal;

namespace {

struct Golden {
    const char* name;
    std::size_t events;
    std::uint64_t trace_hash;
    std::uint64_t fingerprint;
};

// The pinned corpus (recorded by xheal_run; see file comment).
// golden_ramp / golden_mix pin the grammar-v2 keys: delete-fraction ramps,
// per-phase seeds, composite deleter mixtures, and insert bursts.
constexpr Golden kCorpus[] = {
    {"golden_star", 1, 0x7e0eafa1d69b9187ull, 0xc9cd300ffb766e10ull},
    {"golden_churn", 35, 0x10cdc4288603deefull, 0x9e375cb2a64b9163ull},
    {"golden_cycle", 25, 0x9e92da93379b885eull, 0x730290a3a8bfadf1ull},
    {"golden_ramp", 35, 0x7535534326627f9aull, 0xc097a98ecf7dd1dfull},
    {"golden_mix", 40, 0x3b2589071355fbecull, 0xdc512b12ee4818f2ull},
};

std::string data_path(const std::string& file) {
    return std::string(XHEAL_REPO_DIR) + "/tests/data/" + file;
}

}  // namespace

class GoldenTrace : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTrace, CheckedInTraceMatchesThePinnedHashes) {
    const Golden& golden = GetParam();
    auto trace = scenario::read_trace_file(data_path(golden.name) + ".jsonl");
    EXPECT_EQ(trace.events.size(), golden.events);
    EXPECT_EQ(trace.trace_hash, golden.trace_hash);
    EXPECT_EQ(trace.fingerprint, golden.fingerprint);

    // The header must still name the checked-in spec (format drift in
    // to_text()/content_hash() shows up here).
    auto spec = scenario::ScenarioSpec::parse_file(data_path(golden.name) + ".scn");
    EXPECT_EQ(trace.scenario, spec.name);
    EXPECT_EQ(trace.seed, spec.seed);
    EXPECT_EQ(trace.spec_hash, spec.content_hash());

    // Re-hashing the parsed events must reproduce the recorded stream hash
    // (parser/writer asymmetry would break replays).
    scenario::TraceHasher hasher;
    for (const auto& e : trace.events) hasher.add(e);
    EXPECT_EQ(hasher.value(), golden.trace_hash);
}

TEST_P(GoldenTrace, RecordedRunIsStillReproducedByRunAndReplay) {
    const Golden& golden = GetParam();
    auto spec = scenario::ScenarioSpec::parse_file(data_path(golden.name) + ".scn");
    auto trace = scenario::read_trace_file(data_path(golden.name) + ".jsonl");

    // A fresh run of the spec must regenerate the identical stream…
    auto rerun = scenario::ScenarioRunner(spec).run();
    EXPECT_EQ(rerun.trace_hash, golden.trace_hash);
    EXPECT_EQ(rerun.fingerprint, golden.fingerprint);

    // …and the strict replay of the checked-in file must match end to end.
    auto replayed = scenario::ScenarioRunner(spec).replay(trace);
    EXPECT_EQ(replayed.trace_hash, golden.trace_hash);
    EXPECT_EQ(replayed.fingerprint, golden.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTrace, ::testing::ValuesIn(kCorpus),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                             std::string name = info.param.name;
                             for (char& c : name)
                                 if (c == '-') c = '_';
                             return name;
                         });

// Traces recorded while the stepping loop could run on an id-range shard
// engine carry `"shards":S` on their compact lines. The reader ignores the
// key, so such a line reads and hashes exactly like the line without it.
TEST(GoldenTraceCompat, CompactLineWithALegacyShardsKeyReadsAndHashesAlike) {
    auto read = [](const std::string& compact_line) {
        std::stringstream in(
            R"({"type":"header","scenario":"x","seed":1,"spec_hash":"0x0"})" "\n" +
            compact_line + "\n" +
            R"({"type":"end","events":1,"trace_hash":"0x0","fingerprint":"0x0"})" "\n");
        return scenario::read_trace(in);
    };
    auto legacy = read(R"({"type":"compact","step":9,"phase":1,"live":40,"shards":4})");
    auto plain = read(R"({"type":"compact","step":9,"phase":1,"live":40})");
    ASSERT_EQ(legacy.events.size(), 1u);
    EXPECT_EQ(legacy.events, plain.events);
    EXPECT_EQ(legacy.events[0].node, 40u);
    scenario::TraceHasher legacy_hash, plain_hash;
    legacy_hash.add(legacy.events[0]);
    plain_hash.add(plain.events[0]);
    EXPECT_EQ(legacy_hash.value(), plain_hash.value());
    // Re-serialized, the legacy line is the plain one.
    EXPECT_EQ(scenario::event_to_json(legacy.events[0]),
              R"({"type":"compact","step":9,"phase":1,"live":40})");
}
