/**
 * @file
 * Pass post-condition harness: every compiler pass proves its output
 * well-formed before returning (the verify-after-every-pass discipline
 * of production compiler stacks).
 *
 * Levels, selected by the CRITICS_VERIFY environment variable:
 *   - off        — no checks (escape hatch)
 *   - structural — one linear well-formedness walk per pass (the
 *                  default when the variable is unset or empty)
 *   - global     — structural + differential dataflow against a
 *                  pre-pass snapshot + chain contiguity + whole-program
 *                  CFG analysis (cfg.hh): block reachability,
 *                  differential successor edges, live-in/live-out sets,
 *                  cross-block RAW edges and cross-block chain links
 *                  (the default in the test suite and CI smoke)
 *
 * A PassVerifier brackets a pass: construct it on entry (captures the
 * snapshots under `global`), call finish() after the transform.
 * Without an external PassAudit an error-severity finding is a
 * simulator bug and panics with the rendered findings; with one (the
 * `critics_cli lint` path) findings accumulate in the audit's Report
 * and the caller decides.
 *
 * Verification is pure observation: it never mutates the program, and
 * its counters never enter a RunResult — a fully-verified run and an
 * unverified run of the same job must stay bit-identical in the result
 * cache (the same rule that keeps RunHooks out of job specs).  The
 * process-wide counters surface through registerStats(), which every
 * run manifest's `runnerStats` renders as `verify.*`.
 */

#ifndef CRITICS_VERIFY_VERIFY_HH
#define CRITICS_VERIFY_VERIFY_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "verify/cfg.hh"
#include "verify/dataflow.hh"
#include "verify/diagnostics.hh"
#include "verify/structural.hh"

namespace critics::stats
{
class StatRegistry;
}

namespace critics::verify
{

enum class Level : std::uint8_t
{
    Off,
    Structural,
    Global,
};

/** Parse CRITICS_VERIFY: off, structural or global; unset or empty is
 *  structural, and any other value is fatal. */
Level levelFromEnv();

/** Process-wide verification counters (relaxed atomics: passes verify
 *  concurrently on the runner's thread pool). */
struct Counters
{
    std::atomic<std::uint64_t> structuralChecks{0};
    std::atomic<std::uint64_t> globalChecks{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> warnings{0};
    std::atomic<std::uint64_t> advisories{0};
};

Counters &counters();

/** Register the process counters as `verify.*` formulas.  Never bind
 *  these into a per-run registry that feeds the result cache: counts
 *  depend on the CRITICS_VERIFY level, and results must not. */
void registerStats(stats::StatRegistry &reg);

/**
 * External collection context for one audited pass application (the
 * lint path): diagnostics land here instead of panicking, and the
 * pass records which chains it actually transformed.
 */
struct PassAudit
{
    Level level = Level::Global; ///< audited passes get every tier
    Report report;
    std::vector<std::vector<program::InstUid>> transformedChains;
};

/** Brackets one pass application; see file header. */
class PassVerifier
{
  public:
    /** Snapshot `prog` (under Global: a dataflow and a cross-block
     *  snapshot) before the pass mutates it. */
    PassVerifier(const char *passName, const program::Program &prog,
                 PassAudit *audit = nullptr);

    /** Diagnostic sink for in-pass skip advisories; nullptr when
     *  nobody is listening (keeps the hot path allocation-free). */
    Report *sink();

    /** Record a chain the pass actually transformed (it will be
     *  checked for contiguity under Global). */
    void noteTransformedChain(const std::vector<program::InstUid> &c);

    /** CritIC.Ideal: relax Thumb encodability to advisories. */
    void setIdealThumb(bool ideal) { structural_.idealThumb = ideal; }

    /** Run the post-conditions on the transformed program.  Panics on
     *  error-severity findings unless an audit collects them. */
    void finish(const program::Program &prog);

  private:
    const char *name_;
    PassAudit *audit_;
    Level level_;
    StructuralOptions structural_;
    DataflowSnapshot pre_;
    GlobalSnapshot preGlobal_;
    std::vector<std::vector<program::InstUid>> chains_;
    std::size_t baseErrors_ = 0;
    std::size_t baseWarnings_ = 0;
    std::size_t baseAdvice_ = 0;
};

} // namespace critics::verify

#endif // CRITICS_VERIFY_VERIFY_HH
