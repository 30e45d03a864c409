// Shared assertion for the run/replay equality tests: a replayed trace must
// re-derive every deterministic field of the recording run's RunResult, not
// just the hashes. `skipped` is left out — only the live adversary knows
// which of its attempts found no victim or no neighbor.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "scenario/runner.hpp"

namespace xheal::test_support {

inline void expect_same_repair_report(const core::RepairReport& got,
                                      const core::RepairReport& want) {
    EXPECT_EQ(got.edges_added, want.edges_added);
    EXPECT_EQ(got.edges_removed, want.edges_removed);
    EXPECT_EQ(got.clouds_touched, want.clouds_touched);
    EXPECT_EQ(got.combines, want.combines);
    EXPECT_EQ(got.combine_members, want.combine_members);
    EXPECT_EQ(got.rebuilds, want.rebuilds);
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.retries, want.retries);
}

inline void expect_same_stats(const util::RunningStats& got, const util::RunningStats& want) {
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean()),
              std::bit_cast<std::uint64_t>(want.mean()));
}

/// Every deterministic RunResult field a replay re-derives from the event
/// stream: per-phase counts, repair totals, the rounds and victim-degree
/// statistics, and the id-compaction accounting.
inline void expect_same_accounting(const scenario::RunResult& replayed,
                                   const scenario::RunResult& recorded) {
    ASSERT_EQ(replayed.phases.size(), recorded.phases.size());
    for (std::size_t i = 0; i < recorded.phases.size(); ++i) {
        SCOPED_TRACE("phase " + std::to_string(i));
        const scenario::PhaseResult& got = replayed.phases[i];
        const scenario::PhaseResult& want = recorded.phases[i];
        EXPECT_EQ(got.deletions, want.deletions);
        EXPECT_EQ(got.insertions, want.insertions);
        expect_same_repair_report(got.totals, want.totals);
        expect_same_stats(got.rounds, want.rounds);
        expect_same_stats(got.victim_degree, want.victim_degree);
    }
    EXPECT_EQ(replayed.compactions, recorded.compactions);
    EXPECT_EQ(replayed.peak_slot_count, recorded.peak_slot_count);
    EXPECT_EQ(replayed.live_high_water, recorded.live_high_water);
}

}  // namespace xheal::test_support
