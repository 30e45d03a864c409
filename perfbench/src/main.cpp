// xbench — one process, one workload run. Driven by perfbench/run.py.
//
//   xbench untraced SPEC          ScenarioRunner(spec).run() as `xheal_run run`
//                                 drives it; end-to-end timings.
//   xbench traced SPEC [--spans PATH]
//                                 the span-timed mirror (mirror.hpp); per-layer
//                                 timings and work counts.
//   xbench check SPEC             correctness gate: run(), replay() of its
//                                 trace and the mirror must agree; structural
//                                 oracles on the session after run().
//
// Each mode prints one JSON object on stdout. Every mode reports the run's
// outcome (verdict, trace hash, fingerprint, final-sample values as exact
// bit patterns) so run.py can check all runs of an invocation against the
// check's reference. Timings come from this file's clocks only.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/invariants.hpp"
#include "mirror.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace.hpp"
#include "spans.hpp"

namespace {

using perfbench::Clock;
using perfbench::Layer;
using xheal::scenario::MetricSample;
using xheal::scenario::ScenarioRunner;
using xheal::scenario::ScenarioSpec;

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string bits(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return xheal::scenario::hex64(u);
}

/// Nearest-rank percentile (p in (0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// What every execution of a workload must reproduce exactly.
struct Outcome {
    bool pass = false;
    std::uint64_t trace_hash = 0;
    std::uint64_t fingerprint = 0;
    std::size_t events = 0;
    MetricSample fin;
};

/// JSON of an outcome. `history_probes` = include lambda2 and stretch, whose
/// values depend on the cadence-sample history (lambda2 warm start, probe
/// rng position) and so are not reproduced by replay(), which samples only
/// at the end.
std::string outcome_json(const Outcome& o, bool history_probes = true) {
    std::ostringstream out;
    const MetricSample& f = o.fin;
    out << "{\"verdict\":\"" << (o.pass ? "PASS" : "FAIL") << "\",\"trace_hash\":\""
        << xheal::scenario::hex64(o.trace_hash) << "\",\"fingerprint\":\""
        << xheal::scenario::hex64(o.fingerprint) << "\",\"events\":" << o.events
        << ",\"nodes\":" << f.nodes << ",\"edges\":" << f.edges
        << ",\"deletions\":" << f.deletions << ",\"insertions\":" << f.insertions
        << ",\"messages\":" << f.messages << ",\"rounds\":" << f.rounds
        << ",\"retries\":" << f.retries << ",\"components\":" << f.components
        << ",\"max_degree\":" << f.max_degree << ",\"max_degree_ratio\":\""
        << bits(f.max_degree_ratio) << "\",\"mean_degree_ratio\":\""
        << bits(f.mean_degree_ratio) << "\",\"worst_slack_ratio\":\""
        << bits(f.worst_slack_ratio) << "\",\"expansion\":\"" << bits(f.expansion) << "\"";
    if (history_probes)
        out << ",\"lambda2\":\"" << bits(f.lambda2) << "\",\"stretch\":\"" << bits(f.stretch)
            << "\"";
    out << "}";
    return out.str();
}

Outcome outcome_of(const xheal::scenario::RunResult& r) {
    return {r.passed(), r.trace_hash, r.fingerprint, r.events.size(), r.final_sample};
}

Outcome outcome_of(const perfbench::MirrorResult& r) {
    return {r.failures.empty(), r.trace_hash, r.fingerprint, r.events, r.final_sample};
}

int run_untraced(const std::string& spec_path, Clock::time_point start) {
    ScenarioSpec spec = ScenarioSpec::parse_file(spec_path);
    auto setup_start = Clock::now();
    ScenarioRunner runner(spec);
    auto run_start = Clock::now();
    xheal::scenario::RunResult result = runner.run();
    auto run_end = Clock::now();
    Outcome outcome = outcome_of(result);
    auto verdict = Clock::now();
    double rss = peak_rss_mib();

    double run_s = seconds_between(run_start, run_end);
    std::cout << "{\"mode\":\"untraced\",\"wall_s\":" << num(seconds_between(start, verdict))
              << ",\"setup_s\":" << num(seconds_between(setup_start, run_start))
              << ",\"run_s\":" << num(run_s) << ",\"events_per_s\":"
              << num(static_cast<double>(result.events.size()) / run_s)
              << ",\"peak_rss_mib\":" << num(rss) << ",\"outcome\":" << outcome_json(outcome)
              << "}\n";
    return 0;
}

int run_traced(const std::string& spec_path, const std::string& spans_path,
               Clock::time_point start) {
    perfbench::SpanLog log(start);
    std::optional<ScenarioSpec> parsed;
    {
        perfbench::Scope span(log, Layer::parse);
        parsed = ScenarioSpec::parse_file(spec_path);
    }
    const ScenarioSpec& spec = *parsed;
    // About three spans per event (pick, repair or insert, trace record):
    // reserve up front so the log never reallocates inside the timed run.
    std::size_t events_per_step = 0;
    for (const auto& phase : spec.phases)
        events_per_step = std::max(events_per_step, phase.burst + phase.insert_burst);
    log.reserve(64 + 4 * events_per_step * spec.total_steps());

    perfbench::Mirror mirror(spec, log);
    perfbench::MirrorResult result = mirror.run();
    auto verdict = Clock::now();
    double wall = seconds_between(start, verdict);

    // Aggregate spans after the verdict.
    std::vector<double> layer_s(perfbench::layer_count, 0.0);
    std::vector<double> delete_us;
    std::vector<double> flush_us;
    double combine_delete_s = 0.0;
    double top_level_s = 0.0;
    for (const perfbench::Span& s : log.spans()) {
        double sec = s.seconds();
        layer_s[static_cast<std::size_t>(s.layer)] += sec;
        if (s.parent < 0) top_level_s += sec;
        if (s.layer == Layer::remove) {
            delete_us.push_back(sec * 1e6);
            if (s.tag != 0) combine_delete_s += sec;
        }
        if (s.layer == Layer::flush) flush_us.push_back(sec * 1e6);
    }
    auto layer = [&](Layer l) { return layer_s[static_cast<std::size_t>(l)]; };
    const perfbench::WorkCounts& work = result.work;
    const xheal::core::RepairReport& t = work.totals;
    auto per = [](std::size_t a, std::size_t b) {
        return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };

    std::vector<std::pair<std::string, double>> metrics = {
        {"spectral.snapshot_s", layer(Layer::snapshot)},
        {"spectral.components_s", layer(Layer::components)},
        {"spectral.lambda2_s", layer(Layer::lambda2)},
        {"spectral.stretch_s", layer(Layer::stretch)},
        {"spectral.degree_s", layer(Layer::degree)},
        {"spectral.samples", static_cast<double>(work.samples)},
        {"spectral.rebuilds", static_cast<double>(result.probe_rebuilds)},
        {"spectral.patched_rows", static_cast<double>(result.probe_patched_rows)},
        {"scenario.make_topology_s", layer(Layer::make_topology)},
        {"core.session_init_s", layer(Layer::session_init)},
        {"core.delete_s", layer(Layer::remove)},
        {"core.delete_combine_s", combine_delete_s},
        {"core.delete_p50_us", percentile(delete_us, 0.50)},
        {"core.delete_p99_us", percentile(delete_us, 0.99)},
        {"core.insert_s", layer(Layer::insert)},
        {"core.flush_s", layer(Layer::flush)},
        {"core.flush_p99_us", percentile(flush_us, 0.99)},
        {"core.compact_s", layer(Layer::compact)},
        {"core.compactions", static_cast<double>(work.compactions)},
        {"core.deletes", static_cast<double>(work.deletes)},
        {"core.combine_share", per(work.combine_deletes, work.deletes)},
        {"core.edges_added_per_delete", per(t.edges_added, work.deletes)},
        {"core.edges_removed_per_delete", per(t.edges_removed, work.deletes)},
        {"core.clouds_touched_per_delete", per(t.clouds_touched, work.deletes)},
        {"core.combine_members_per_combine", per(t.combine_members, t.combines)},
        {"core.rebuilds", static_cast<double>(t.rebuilds)},
    };
    for (std::size_t b = 0; b < work.work_log2.size(); ++b)
        metrics.emplace_back("core.work_log2.b" + std::to_string(b),
                             static_cast<double>(work.work_log2[b]));
    std::size_t excess = perfbench::degree_bound_excess(mirror.session(), mirror.kappa());
    metrics.insert(metrics.end(), {
        {"core.degree_bound_excess_nodes", static_cast<double>(excess)},
        {"adversary.delete_pick_s", layer(Layer::delete_pick)},
        {"adversary.insert_pick_s", layer(Layer::insert_pick)},
        {"sim.messages_per_delete", per(t.messages, work.deletes)},
        {"sim.rounds_per_delete", per(t.rounds, work.deletes)},
        {"sim.retries_per_delete", per(t.retries, work.deletes)},
        {"scenario.trace_hash_s", layer(Layer::trace_hash)},
        {"scenario.fingerprint_s", layer(Layer::fingerprint)},
        {"bench.layer_coverage", top_level_s / wall},
    });

    if (!spans_path.empty()) {
        std::ofstream out(spans_path);
        log.write_tsv(out);
        if (!out) throw std::runtime_error("cannot write spans to " + spans_path);
    }

    std::cout << "{\"mode\":\"traced\",\"wall_s\":" << num(wall) << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? "," : "") << "\"" << metrics[i].first
                  << "\":" << num(metrics[i].second);
    std::cout << "},\"outcome\":" << outcome_json(outcome_of(result)) << "}\n";
    return 0;
}

int run_check(const std::string& spec_path) {
    ScenarioSpec spec = ScenarioSpec::parse_file(spec_path);
    std::vector<std::string> problems;

    Outcome reference;
    xheal::scenario::Trace trace;
    std::vector<xheal::core::InvariantFinding> findings;
    std::size_t oracles = 0;
    std::size_t excess = 0;
    {
        ScenarioRunner runner(spec);
        xheal::scenario::RunResult result = runner.run();
        reference = outcome_of(result);
        for (const std::string& failure : result.failures)
            problems.push_back("run: expectation failed: " + failure);
        trace = result.to_trace(spec);
        // Oracles on the session after run(). The degree bound is Lemma 3,
        // which only the xheal family (the healers with a cloud registry)
        // guarantees; check_structural then runs graph-consistency,
        // reference-edges, connectivity, degree-bound and healer-consistency.
        bool xheal_family = runner.registry() != nullptr;
        xheal::core::InvariantSuite suite(runner.kappa());
        suite.enable_degree_bound(xheal_family);
        suite.check_structural(runner.session(), findings);
        oracles = xheal_family ? 5 : 4;
        excess = perfbench::degree_bound_excess(runner.session(), runner.kappa());
    }
    {
        ScenarioRunner replayer(spec);
        Outcome replayed = outcome_of(replayer.replay(trace));
        bool history = spec.sample_every == 0;
        if (outcome_json(replayed, history) != outcome_json(reference, history))
            problems.push_back("replay differs: " + outcome_json(replayed, history) +
                               " vs run " + outcome_json(reference, history));
    }
    {
        perfbench::SpanLog log(Clock::now());
        perfbench::Mirror mirror(spec, log);
        Outcome mirrored = outcome_of(mirror.run());
        if (outcome_json(mirrored) != outcome_json(reference))
            problems.push_back("mirror differs: " + outcome_json(mirrored) + " vs run " +
                               outcome_json(reference));
    }

    auto quote = [](const std::string& s) {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\') out += '\\';
            out += (c == '\n' || c == '\t') ? ' ' : c;
        }
        return out + "\"";
    };
    std::cout << "{\"mode\":\"check\",\"ok\":" << (problems.empty() ? "true" : "false")
              << ",\"problems\":[";
    for (std::size_t i = 0; i < problems.size(); ++i)
        std::cout << (i ? "," : "") << quote(problems[i]);
    std::cout << "],\"oracles\":" << oracles << ",\"oracle_findings\":" << findings.size()
              << ",\"findings\":[";
    for (std::size_t i = 0; i < findings.size(); ++i)
        std::cout << (i ? "," : "") << quote(findings[i].oracle);
    std::cout << "],\"degree_bound_excess_nodes\":" << excess
              << ",\"outcome\":" << outcome_json(reference) << "}\n";
    return 0;
}

int usage() {
    std::cerr << "usage: xbench untraced SPEC | xbench traced SPEC [--spans PATH] | "
                 "xbench check SPEC\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    const Clock::time_point start = Clock::now();
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() < 2) return usage();
    try {
        if (args[0] == "untraced" && args.size() == 2) return run_untraced(args[1], start);
        if (args[0] == "check" && args.size() == 2) return run_check(args[1]);
        if (args[0] == "traced" && args.size() == 2) return run_traced(args[1], "", start);
        if (args[0] == "traced" && args.size() == 4 && args[2] == "--spans")
            return run_traced(args[1], args[3], start);
    } catch (const std::exception& e) {
        std::cerr << "xbench: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
