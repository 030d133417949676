/**
 * @file
 * Hierarchical statistic registry (gem5-style).  Components register
 * typed stats under dotted names — `cpu.fetch.stallForI.icache`,
 * `mem.l1i.misses`, `runner.cache.hits` — and every exporter (the sim
 * JSON report, the interval time-series sampler, the result-diff
 * harness, the result store's record codec) walks the one registry
 * instead of hand-rolling field lists.
 *
 * Stats are *views*: a registered stat references storage owned by the
 * component (a struct field, a histogram, a closure over both), so the
 * existing stats structs stay the source of truth and benches remain
 * source-compatible.  The registry itself owns only names, descriptions
 * and accessors; registrants must outlive it.
 *
 * Kinds:
 *   - Counter:      const std::uint64_t&  (exported as an integer)
 *   - Value:        const double&
 *   - Formula:      std::function<double()> — derived stats (IPC, MPKI,
 *                   miss rates) evaluated lazily at export time
 *   - Vector:       a named tuple of counter/value elements under one
 *                   name (e.g. a stage-residency breakdown)
 *   - Latency:      a support/LatencyHistogram (log-bucketed µs
 *                   distribution exporting count/mean/p50/p90/p99)
 */

#ifndef CRITICS_STATS_REGISTRY_HH
#define CRITICS_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/histogram.hh"

namespace critics::json
{
class JsonWriter;
}

namespace critics::stats
{

enum class StatKind : std::uint8_t
{
    Counter,
    Value,
    Formula,
    Vector,
    Latency,
};

/** One element of a Vector stat. */
struct VectorElem
{
    std::string name;
    const std::uint64_t *counter = nullptr; ///< one of these is set
    const double *value = nullptr;

    double eval() const;
};

/** One registered stat. */
struct StatDef
{
    std::string name; ///< dotted hierarchical name
    std::string desc;
    StatKind kind = StatKind::Counter;

    const std::uint64_t *counter = nullptr;  ///< Counter
    const double *value = nullptr;           ///< Value
    std::function<double()> formula;         ///< Formula
    std::vector<VectorElem> elems;           ///< Vector
    const LatencyHistogram *latency = nullptr; ///< Latency

    /** Scalar reading: Counter/Value/Formula values, the sum of a
     *  Vector's elements, a Latency histogram's sample count.  Non-finite formula results clamp to
     *  0 so exports stay valid JSON. */
    double eval() const;
};

class StatRegistry
{
  public:
    // ---- Registration ----------------------------------------------------
    // Names must be unique and non-empty; a leaf may not also be used
    // as a group prefix of another stat (`a.b` + `a.b.c` panics), so
    // the dotted namespace always nests into a well-formed JSON tree.
    void addCounter(const std::string &name, const std::uint64_t &v,
                    std::string desc = "");
    void addValue(const std::string &name, const double &v,
                  std::string desc = "");
    void addFormula(const std::string &name,
                    std::function<double()> formula,
                    std::string desc = "");
    void addVector(const std::string &name, std::vector<VectorElem> elems,
                   std::string desc = "");
    void addLatency(const std::string &name, const LatencyHistogram &h,
                    std::string desc = "");

    // ---- Lookup / traversal ----------------------------------------------
    std::size_t size() const { return defs_.size(); }
    bool empty() const { return defs_.empty(); }

    /** Stat by exact dotted name; nullptr when absent. */
    const StatDef *find(const std::string &name) const;

    /** Stats in name order (the canonical export order). */
    void forEach(const std::function<void(const StatDef &)> &fn) const;

    /**
     * Flat numeric snapshot in name order: Counter/Value/Formula as
     * (name, value); Vector elements as name.elem; Latency histograms
     * as name.count / name.mean / name.p50 / name.p90 / name.p99.
     * This is the surface the interval sampler and the diff harness
     * consume.
     */
    std::vector<std::pair<std::string, double>> snapshot() const;

    /**
     * Append the registry as nested JSON fields of the writer's
     * currently-open object, grouping dotted names into sub-objects.
     * Counters emit as integers, everything else as readable doubles.
     */
    void writeJson(json::JsonWriter &w) const;

    /** The registry as one JSON object. */
    std::string toJson() const;

  private:
    const StatDef &add(StatDef def);
    void sortIfNeeded() const;

    mutable std::vector<StatDef> defs_;
    mutable bool sorted_ = true;
};

/** A dotted name's parts: "cpu.stage.all" -> {cpu, stage, all}. */
std::vector<std::string> splitDots(const std::string &name);

/**
 * How many of the `open` groups (outermost first) the name split into
 * `parts` stays inside; its last part is the leaf and never counts.
 * Walking names in sorted order, an exporter closes the other groups,
 * opens parts[shared .. back) and writes the leaf: the nesting
 * writeJson() emits.
 */
std::size_t sharedGroups(const std::vector<std::string> &open,
                         const std::vector<std::string> &parts);

} // namespace critics::stats

#endif // CRITICS_STATS_REGISTRY_HH
