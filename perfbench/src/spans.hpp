// In-memory span log for the traced mirror: one span per call into a
// library layer, kept in a flat vector during the run and aggregated (or
// written out) only after the verdict, so the log costs two clock reads and
// one push_back per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

/// One id per layer boundary the mirror times. Names follow the library's
/// module directories (scenario/, core/, adversary/, spectral/).
enum class Layer : std::uint8_t {
    parse,          ///< ScenarioSpec::parse_file
    make_topology,  ///< scenario::make_topology (expander / workload generators)
    session_init,   ///< make_healer + HealingSession ctor (G' copy) + journals
    delete_pick,    ///< DeletionStrategy::pick
    insert_pick,    ///< InsertionStrategy::pick_neighbors
    remove,         ///< HealingSession::delete_node / stage_delete
    insert,         ///< HealingSession::insert_node
    flush,          ///< HealingSession::flush_staged
    compact,        ///< HealingSession::compact + ProbeEngine::on_compact
    trace_hash,     ///< TraceHasher::add + event record
    sample,         ///< one metric sample (parent of the probe spans below)
    snapshot,       ///< begin_sample / note_reference / journal drain / end_sample
    components,     ///< ProbeEngine::component_count (first probe syncs the CSR)
    degree,         ///< max_degree + core::degree_increase + Lemma 3 slack
    lambda2,        ///< ProbeEngine::lambda2
    stretch,        ///< ProbeEngine::sampled_stretch
    fingerprint,    ///< graph_fingerprint
    verdict,        ///< expectation evaluation
    count_,
};

constexpr std::size_t layer_count = static_cast<std::size_t>(Layer::count_);

inline const char* layer_name(Layer layer) {
    static const char* const names[layer_count] = {
        "scenario.parse",       "scenario.make_topology", "core.session_init",
        "adversary.delete_pick", "adversary.insert_pick", "core.delete",
        "core.insert",          "core.flush",             "core.compact",
        "scenario.trace_hash",  "spectral.sample",        "spectral.snapshot",
        "spectral.components",  "spectral.degree",        "spectral.lambda2",
        "spectral.stretch",     "scenario.fingerprint",   "scenario.verdict",
    };
    return names[static_cast<std::size_t>(layer)];
}

using Clock = std::chrono::steady_clock;

struct Span {
    std::int64_t start_ns = 0;  ///< since the log's origin
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;   ///< index of the enclosing span, -1 = top level
    Layer layer = Layer::parse;
    /// Set by the caller after the call returns; core.delete spans carry 1
    /// when the deletion's RepairReport had combines > 0.
    std::uint8_t tag = 0;

    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class SpanLog {
public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    void reserve(std::size_t n) { spans_.reserve(n); }

    /// Open a span under the currently open one; returns its index.
    std::size_t open(Layer layer) {
        Span span;
        span.layer = layer;
        span.parent = open_;
        span.start_ns = now_ns();
        spans_.push_back(span);
        open_ = static_cast<std::int32_t>(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void close(std::size_t index) {
        Span& span = spans_[index];
        span.end_ns = now_ns();
        open_ = span.parent;
    }

    void tag(std::size_t index, std::uint8_t value) { spans_[index].tag = value; }

    const std::vector<Span>& spans() const { return spans_; }

    /// Tab-separated dump: index, parent, layer name, start and end in ns.
    void write_tsv(std::ostream& out) const {
        out << "index\tparent\tlayer\tstart_ns\tend_ns\ttag\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << i << '\t' << s.parent << '\t' << layer_name(s.layer) << '\t' << s.start_ns
                << '\t' << s.end_ns << '\t' << static_cast<int>(s.tag) << '\n';
        }
    }

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::int32_t open_ = -1;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
public:
    Scope(SpanLog& log, Layer layer) : log_(log), index_(log.open(layer)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::size_t index() const { return index_; }

private:
    SpanLog& log_;
    std::size_t index_;
};

}  // namespace perfbench
