// xheal_run CLI contract: scripting consumers (CI, shell pipelines) rely
// on the documented exit codes — 0 success, 1 verdict failure (expectation
// FAIL, replay mismatch, diff divergence, fuzz findings, shrink of a
// non-failing trace), 2 usage/file/parse errors. This test drives the real
// binary (XHEAL_RUN_BIN, injected by CMake) through every subcommand's
// success, missing-file and mismatch paths.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "scenario/runner.hpp"
#include "scenario/trace.hpp"

using namespace xheal;

namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Run the binary with `args`; returns the exit code (or -1 when the
/// process did not exit normally). Output is discarded unless `output` is
/// given, which then receives stdout and stderr combined.
int run_cli(const std::string& args, std::string* output = nullptr) {
    std::string sink = output ? testing::TempDir() + "cli_output.txt" : "/dev/null";
    std::string command = std::string(XHEAL_RUN_BIN) + " " + args + " > " + sink + " 2>&1";
    int status = std::system(command.c_str());
    if (output) *output = slurp(sink);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string write_file(const std::string& name, const std::string& content) {
    std::string path = testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

const char* kPassingSpec = R"(name cli-pass
seed 5
topology cycle n=16
healer cycle
phase churn steps=12 delete_fraction=0.5 deleter=random inserter=random-attach k=2 min_nodes=6
expect connected
)";

const char* kFailingSpec = R"(name cli-fail
seed 5
topology cycle n=16
healer no-heal
phase drain steps=4 delete_fraction=1 deleter=random min_nodes=4
expect nodes >= 100
)";

/// A spec whose run breaks connectivity (fault-injected healer), for the
/// fuzz/shrink failure paths.
const char* kFaultySpec = R"(name cli-faulty
seed 11
topology cycle n=24
healer faulty inner=cycle drop_every=4
phase churn steps=40 delete_fraction=0.7 deleter=random inserter=random-attach k=2 min_nodes=4
)";

class CliContract : public ::testing::Test {
protected:
    void SetUp() override {
        pass_scn_ = write_file("cli_pass.scn", kPassingSpec);
        fail_scn_ = write_file("cli_fail.scn", kFailingSpec);
        faulty_scn_ = write_file("cli_faulty.scn", kFaultySpec);
        trace_path_ = testing::TempDir() + "cli_trace.jsonl";
        auto spec = scenario::ScenarioSpec::parse_file(pass_scn_);
        auto result = scenario::ScenarioRunner(spec).run();
        scenario::write_trace_file(trace_path_, result.to_trace(spec));
    }

    std::string pass_scn_, fail_scn_, faulty_scn_, trace_path_;
};

}  // namespace

TEST_F(CliContract, NoCommandAndUnknownCommandAreUsageErrors) {
    EXPECT_EQ(run_cli(""), 2);
    EXPECT_EQ(run_cli("frobnicate"), 2);
}

TEST_F(CliContract, RunExitCodes) {
    EXPECT_EQ(run_cli("run " + pass_scn_), 0);
    EXPECT_EQ(run_cli("run " + fail_scn_), 1);          // expectation FAIL
    EXPECT_EQ(run_cli("run /nonexistent.scn"), 2);      // missing file
    EXPECT_EQ(run_cli("run " + pass_scn_ + " --max-steps nope"), 2);

    // The v7 run report: pinned schema, no engine-width or stall field.
    std::string json = testing::TempDir() + "cli_run.json";
    EXPECT_EQ(run_cli("run " + pass_scn_ + " --json " + json), 0);
    std::string body = slurp(json);
    EXPECT_NE(body.find("\"schema\": \"xheal-bench-scenarios-v7\""), std::string::npos);
    EXPECT_EQ(body.find("shards"), std::string::npos);
    EXPECT_EQ(body.find("probe_stall_seconds"), std::string::npos);
}

TEST_F(CliContract, UnknownOptionsAreUsageErrorsBeforeAnythingRuns) {
    // An unrecognised --flag must not be taken for a spec path (which would
    // run every spec first and only then fail to open the "file"), nor for
    // a batch directory or trace file. The removed --probe-mode is the live
    // case.
    std::string dir = testing::TempDir() + "cli_batch_unknown";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/only.scn") << kPassingSpec;
    const std::string commands[] = {
        "run " + pass_scn_ + " --bogus",
        "run " + pass_scn_ + " --probe-mode inline",
        "batch " + dir + " --probe-mode inline",
        "batch --bogus " + dir,
        "fuzz " + pass_scn_ + " --bogus",
        "shrink " + faulty_scn_ + " " + trace_path_ + " --bogus",
        "diff " + trace_path_ + " " + trace_path_ + " --bogus",
    };
    for (const std::string& command : commands) {
        SCOPED_TRACE(command);
        std::string output;
        EXPECT_EQ(run_cli(command, &output), 2);
        EXPECT_NE(output.find("unknown option"), std::string::npos) << output;
        EXPECT_EQ(output.find("VERDICT"), std::string::npos) << output;
    }
}

TEST_F(CliContract, MalformedSpecsExitTwoWithTheirLineNumber) {
    // Removed grammar, oversized integers and non-finite reals are parse
    // errors, reported with the offending line.
    const std::string spec = kPassingSpec;
    const std::string phase_line = "phase churn steps=12 ";
    auto with = [&](const std::string& name, const std::string& from, const std::string& to) {
        std::string text = spec;
        text.replace(text.find(from), from.size(), to);
        return write_file(name, text);
    };
    struct Case {
        std::string path, line;
    };
    const Case cases[] = {
        {with("cli_shards.scn", "seed 5\n", "seed 5\nshards 4\n"), "spec line 3"},
        {with("cli_phase_shards.scn", phase_line, phase_line + "shards=2 "), "spec line 5"},
        {with("cli_huge_seed.scn", "seed 5", "seed 99999999999999999999999"), "spec line 2"},
        {with("cli_huge_steps.scn", "steps=12", "steps=99999999999999999999999"),
         "spec line 5"},
        {with("cli_nan_drop.scn", phase_line, phase_line + "drop=nan "), "spec line 5"},
        {with("cli_inf_mix.scn", "deleter=random", "deleter=random:inf,max-degree:1"),
         "spec line 5"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.path);
        std::string output;
        EXPECT_EQ(run_cli("run " + c.path, &output), 2);
        EXPECT_NE(output.find(c.line), std::string::npos) << output;
    }
}

TEST_F(CliContract, PrintAndListExitCodes) {
    EXPECT_EQ(run_cli("print " + pass_scn_), 0);
    EXPECT_EQ(run_cli("print /nonexistent.scn"), 2);
    EXPECT_EQ(run_cli("list"), 0);
}

TEST_F(CliContract, ReplayExitCodes) {
    EXPECT_EQ(run_cli("replay " + pass_scn_ + " " + trace_path_), 0);
    EXPECT_EQ(run_cli("replay " + pass_scn_ + " /nonexistent.jsonl"), 2);

    // Tamper with the recorded trace hash: parse still succeeds, replay
    // must report the mismatch as a verdict failure.
    auto trace = scenario::read_trace_file(trace_path_);
    trace.trace_hash ^= 0x1;
    std::string tampered = testing::TempDir() + "cli_tampered.jsonl";
    scenario::write_trace_file(tampered, trace);
    EXPECT_EQ(run_cli("replay " + pass_scn_ + " " + tampered), 1);

    // Malformed numbers in an insert line are file errors, not verdicts:
    // a suffixed node id, a node id past 32 bits (which would truncate to
    // the recorded id and replay as PASS), and a non-numeric neighbor
    // (which would read as node 0 and replay as FAIL).
    trace = scenario::read_trace_file(trace_path_);
    auto insert = std::find_if(trace.events.begin(), trace.events.end(), [](const auto& e) {
        return e.kind == scenario::TraceEvent::Kind::insert;
    });
    ASSERT_NE(insert, trace.events.end());
    const std::string line = scenario::event_to_json(*insert);
    const std::string text = slurp(trace_path_);
    const std::size_t line_no = 2 + static_cast<std::size_t>(insert - trace.events.begin());
    const std::string node = "\"node\":" + std::to_string(insert->node);
    auto mutated = [&](const std::string& name, const std::string& from, const std::string& to) {
        std::string bad_line = line;
        bad_line.replace(bad_line.find(from), from.size(), to);
        std::string bad = text;
        bad.replace(bad.find(line), line.size(), bad_line);
        return write_file(name, bad);
    };
    const std::string bad_traces[] = {
        mutated("cli_node_suffix.jsonl", node, node + "xyz"),
        mutated("cli_node_wide.jsonl", node,
                "\"node\":" + std::to_string(insert->node + (std::uint64_t{1} << 32))),
        mutated("cli_neighbor_junk.jsonl", "\"neighbors\":[", "\"neighbors\":[zz,"),
    };
    for (const std::string& bad : bad_traces) {
        SCOPED_TRACE(bad);
        std::string output;
        EXPECT_EQ(run_cli("replay " + pass_scn_ + " " + bad, &output), 2);
        EXPECT_NE(output.find("trace line " + std::to_string(line_no)), std::string::npos)
            << output;
    }
}

TEST_F(CliContract, DiffExitCodes) {
    EXPECT_EQ(run_cli("diff " + trace_path_ + " " + trace_path_), 0);
    EXPECT_EQ(run_cli("diff " + trace_path_ + " /nonexistent.jsonl"), 2);
    EXPECT_EQ(run_cli("diff " + trace_path_), 2);  // usage

    // A perturbed re-run: drop one event and diff against the recording.
    auto trace = scenario::read_trace_file(trace_path_);
    trace.events.pop_back();
    std::string perturbed = testing::TempDir() + "cli_perturbed.jsonl";
    scenario::write_trace_file(perturbed, trace);
    EXPECT_EQ(run_cli("diff " + trace_path_ + " " + perturbed), 1);
}

TEST_F(CliContract, BatchExitCodes) {
    // A directory with one passing spec: success, and --json writes the
    // aggregated report. TempDir persists across runs — start clean so a
    // previous run's FAIL spec cannot leak into the passing directory.
    std::string dir = testing::TempDir() + "cli_batch_pass";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/only.scn") << kPassingSpec;
    std::string json = testing::TempDir() + "cli_batch.json";
    EXPECT_EQ(run_cli("batch " + dir + " --json " + json), 0);
    std::string body = slurp(json);
    EXPECT_NE(body.find("\"schema\": \"xheal-batch-v6\""), std::string::npos);
    EXPECT_EQ(body.find("shards"), std::string::npos);
    EXPECT_EQ(body.find("probe_stall_seconds"), std::string::npos);
    EXPECT_NE(body.find("\"jobs\": 1"), std::string::npos);
    EXPECT_NE(body.find("\"trace_hash\""), std::string::npos);
    // v3 billing columns are always present (0 for local healers).
    EXPECT_NE(body.find("\"messages\""), std::string::npos);
    EXPECT_NE(body.find("\"rounds\""), std::string::npos);
    EXPECT_NE(body.find("\"retries\""), std::string::npos);

    // --jobs routes through the worker pool; results (and exit code) match.
    EXPECT_EQ(run_cli("batch " + dir + " --jobs 4"), 0);

    // One FAIL spec in the directory: verdict failure.
    std::ofstream(dir + "/bad.scn") << kFailingSpec;
    EXPECT_EQ(run_cli("batch " + dir), 1);

    // The tournament override: forcing the no-heal healer onto a spec that
    // expects connectivity is a verdict failure, not an error.
    std::string solo = testing::TempDir() + "cli_batch_solo";
    std::filesystem::remove_all(solo);
    std::filesystem::create_directories(solo);
    std::ofstream(solo + "/only.scn") << kPassingSpec;
    EXPECT_EQ(run_cli("batch " + solo + " --healer no-heal"), 1);
    EXPECT_EQ(run_cli("batch " + solo + " --healer cycle"), 0);

    // Environment errors: missing directory, empty directory, bad healer
    // kind (factory throws -> file/parse error class), usage.
    EXPECT_EQ(run_cli("batch /nonexistent-dir"), 2);
    std::string empty = testing::TempDir() + "cli_batch_empty";
    std::filesystem::remove_all(empty);
    std::filesystem::create_directories(empty);
    EXPECT_EQ(run_cli("batch " + empty), 2);
    EXPECT_EQ(run_cli("batch " + solo + " --healer bandaid"), 2);
    EXPECT_EQ(run_cli("batch"), 2);
}

TEST_F(CliContract, FuzzExitCodes) {
    std::string out = testing::TempDir() + "cli_fuzz_repro";
    EXPECT_EQ(run_cli("fuzz " + pass_scn_ + " --candidates 8 --seed 2"), 0);
    EXPECT_EQ(run_cli("fuzz " + faulty_scn_ + " --candidates 8 --seed 2 --out " + out),
              1);
    // The failing fuzz wrote a shrunk reproducer pair that replays cleanly.
    EXPECT_EQ(run_cli("replay " + out + "-cli-faulty.scn " + out +
                      "-cli-faulty.jsonl"),
              0);
    EXPECT_EQ(run_cli("fuzz /nonexistent.scn"), 2);
}

TEST_F(CliContract, ShrinkExitCodes) {
    // The passing trace breaks nothing: a verdict failure, not an error.
    EXPECT_EQ(run_cli("shrink " + pass_scn_ + " " + trace_path_), 1);
    EXPECT_EQ(run_cli("shrink " + pass_scn_ + " /nonexistent.jsonl"), 2);

    // Record the faulty run and shrink it.
    auto spec = scenario::ScenarioSpec::parse_file(faulty_scn_);
    auto result = scenario::ScenarioRunner(spec).run();
    std::string faulty_trace = testing::TempDir() + "cli_faulty.jsonl";
    scenario::write_trace_file(faulty_trace, result.to_trace(spec));
    std::string out = testing::TempDir() + "cli_shrink_repro";
    EXPECT_EQ(run_cli("shrink " + faulty_scn_ + " " + faulty_trace + " --out " + out),
              0);
    EXPECT_EQ(run_cli("replay " + out + ".scn " + out + ".jsonl"), 0);
}
