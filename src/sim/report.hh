/**
 * @file
 * Machine-readable result export: serialize RunResult/CpuStats to a
 * small JSON document so external tooling (plotting scripts, CI
 * regression checks) can consume bench output without parsing tables.
 *
 * Serialization walks the stat registry (bindRunResult), so every
 * exporter — this report, the interval sampler, `critics_cli diff` —
 * sees the same dotted names and values.
 */

#ifndef CRITICS_SIM_REPORT_HH
#define CRITICS_SIM_REPORT_HH

#include <string>

#include "sim/experiment.hh"

namespace critics::stats
{
class StatRegistry;
}

namespace critics::sim
{

/**
 * Register every RunResult metric: the CPU under "cpu", the memory
 * hierarchy under "mem", energy under "energy", the compiler pass
 * under "pass" and the run-level fractions under "run".  `result`
 * must outlive the registry.
 */
void bindRunResult(stats::StatRegistry &reg, const RunResult &result);

/** Serialize one run as a nested JSON object (no external
 *  dependencies; dotted stat names are stable API). */
std::string toJson(const RunResult &result,
                   const std::string &label = "run");

} // namespace critics::sim

#endif // CRITICS_SIM_REPORT_HH
