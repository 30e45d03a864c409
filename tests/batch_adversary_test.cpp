// Batched adversary (grammar: `batch=k` phase key) — k deletions are
// staged per repair flush, amortizing H-graph splices and claim
// syncs across the batch (DESIGN.md decision 9). These tests pin the
// contract that makes batch>1 safe to ship:
//
//   * the trace format is unchanged — each deletion is still logged as its
//     own event — and a recorded batched run replays byte-for-byte (same
//     trace hash AND same final-graph fingerprint, which means replay
//     reproduces every flush boundary exactly: one missed boundary would
//     desynchronize the healer's rng and change the healed graph);
//   * batch=1 is the identity — the spec text omits it and the semantics
//     (and hashes) are exactly the unbatched ones, so every pre-batch
//     golden trace stays valid;
//   * the key round-trips through spec text and participates in the
//     content hash only when it is not the default.
#include <gtest/gtest.h>

#include <sstream>

#include "scenario/runner.hpp"
#include "scenario/trace.hpp"
#include "replay_accounting.hpp"

using namespace xheal;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;

namespace {

/// Churny schedule with two batched phases (one batch larger than its
/// per-step deletion count, exercising the flush-at-phase-end path), an
/// unbatched phase in the middle, inserts interleaved (every insert forces
/// a flush), and a sampling cadence that lands mid-batch.
ScenarioSpec batched_spec() {
    return ScenarioSpec::parse(R"(
name batch-churn
seed 11
topology erdos-renyi n=160 p=0.08
healer xheal d=2
probes connected
sample_every 20
phase surge steps=60 delete_fraction=0.8 deleter=random inserter=random-attach k=3 batch=16 min_nodes=24
phase calm steps=30 delete_fraction=0.3 deleter=random inserter=random-attach k=3 min_nodes=24
phase finale steps=25 delete_fraction=1 deleter=max-degree batch=64 min_nodes=24
)");
}

/// Small batches (batch=4) under id-compaction: the epoch close must land
/// on a flushed batch.
ScenarioSpec batched_compacting_spec() {
    return ScenarioSpec::parse(R"(
name batch-compact-churn
seed 29
topology random-regular n=64 d=4
healer xheal d=2
phase churn steps=120 delete_fraction=0.7 batch=4 deleter=random inserter=random-attach k=3 min_nodes=24 compact=3
expect connected
)");
}

}  // namespace

TEST(BatchAdversary, BatchKeyRoundTripsThroughSpecText) {
    auto spec = batched_spec();
    ASSERT_EQ(spec.phases.size(), 3u);
    EXPECT_EQ(spec.phases[0].batch, 16u);
    EXPECT_EQ(spec.phases[1].batch, 1u);
    EXPECT_EQ(spec.phases[2].batch, 64u);

    auto reparsed = ScenarioSpec::parse(spec.to_text());
    EXPECT_EQ(reparsed.content_hash(), spec.content_hash());
    EXPECT_EQ(reparsed.phases[0].batch, 16u);
    EXPECT_EQ(reparsed.phases[1].batch, 1u);
    EXPECT_EQ(reparsed.phases[2].batch, 64u);
    // The default never appears in the text: pre-batch specs hash the same.
    EXPECT_EQ(spec.to_text().find("batch=1 "), std::string::npos);
}

TEST(BatchAdversary, BatchZeroIsRejected) {
    EXPECT_THROW(ScenarioSpec::parse(R"(
name bad
seed 1
topology star leaves=8
healer xheal d=2
phase kill steps=1 delete_fraction=1 batch=0
)"),
                 std::runtime_error);
}

TEST(BatchAdversary, BatchedRunIsDeterministic) {
    auto a = ScenarioRunner(batched_spec()).run();
    auto b = ScenarioRunner(batched_spec()).run();
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_GT(a.events.size(), 0u);
}

TEST(BatchAdversary, BatchedTraceReplaysByteForByte) {
    for (const ScenarioSpec& spec : {batched_spec(), batched_compacting_spec()}) {
        SCOPED_TRACE(spec.name);
        auto recorded = ScenarioRunner(spec).run();
        auto trace = recorded.to_trace(spec);

        // Serialize + parse the JSONL in between, as xheal_run replay does.
        std::stringstream io;
        scenario::write_trace(io, trace);
        auto loaded = scenario::read_trace(io);
        EXPECT_EQ(loaded.trace_hash, recorded.trace_hash);

        auto replayed = ScenarioRunner(spec).replay(loaded);
        EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
        EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
        // Replay re-derives the per-phase accounting from the event stream:
        // the repair totals only match if every flush groups the same
        // staged deletions as the recording run.
        test_support::expect_same_accounting(replayed, recorded);
    }
    EXPECT_GE(ScenarioRunner(batched_compacting_spec()).run().compactions, 1u)
        << "the batch=4 input never crossed an epoch boundary";
}

TEST(BatchAdversary, ExplicitBatchOneMatchesUnbatchedSemantics) {
    auto unbatched = batched_spec();
    for (auto& phase : unbatched.phases) phase.batch = 1;

    auto explicit_one = ScenarioSpec::parse(unbatched.to_text());
    ASSERT_EQ(explicit_one.content_hash(), unbatched.content_hash());

    auto a = ScenarioRunner(unbatched).run();
    auto b = ScenarioRunner(explicit_one).run();
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(BatchAdversary, BatchingChangesScheduleButKeepsGraphHealthy) {
    // batch>1 is NEW semantics (deferred reconnection), so the event stream
    // legitimately diverges from batch=1 on the same seed — but the healed
    // graph must stay consistent and connected under the same floors.
    auto batched = batched_spec();
    auto flat = batched_spec();
    for (auto& phase : flat.phases) phase.batch = 1;

    auto a = ScenarioRunner(batched).run();
    auto b = ScenarioRunner(flat).run();
    EXPECT_NE(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.final_sample.components, 1u);
    EXPECT_EQ(b.final_sample.components, 1u);
}
