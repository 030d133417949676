/**
 * @file
 * Binary-rewriting passes (the ART-compiler stage of Sec. III):
 *
 *   - CritIC pass: hoist each selected chain contiguous inside its
 *     basic block (legal code motion only), re-encode its instructions
 *     in the 16-bit format (all-or-nothing) and emit the format switch
 *     (CDP command, branch pair, or nothing for the zero-overhead
 *     hypothetical);
 *   - Hoist-only pass (the Fig. 10 "Hoist" design point): same motion,
 *     no re-encoding;
 *   - OPP16 (Sec. V): opportunistically convert any run of >= minRun
 *     consecutive convertible instructions, paying the 2-address
 *     mov-expansion where the 16-bit format requires it;
 *   - Compress (Fine-Grained Thumb Conversion [78]): function-wide
 *     conversion that keeps the "slower thumb" (expansion-requiring)
 *     instructions in 32-bit form.
 */

#ifndef CRITICS_COMPILER_PASSES_HH
#define CRITICS_COMPILER_PASSES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "program/program.hh"

namespace critics::stats
{
class StatRegistry;
}

namespace critics::verify
{
struct PassAudit;
}

namespace critics::compiler
{

/** How the decoder learns about a 16-bit run. */
enum class SwitchMode : std::uint8_t
{
    None,       ///< hypothetical zero-overhead switch (Fig. 8 "ideal")
    Cdp,        ///< repurposed CDP command (Sec. IV-B)
    BranchPair, ///< stock-hardware branch switch (Sec. IV-A)
};

struct PassStats
{
    std::uint64_t chainsAttempted = 0;
    std::uint64_t chainsTransformed = 0;
    std::uint64_t hoistFailures = 0;
    std::uint64_t localRenames = 0;   ///< WAW/WAR resolved by renaming
    std::uint64_t blockedRaw = 0;     ///< hoist blocked: true dependence
    std::uint64_t blockedMem = 0;     ///< hoist blocked: may-alias memory
    std::uint64_t blockedCtl = 0;     ///< hoist blocked: control boundary
    std::uint64_t blockedRename = 0;  ///< hoist blocked: rename failed
    std::uint64_t instsConverted = 0;   ///< now in 16-bit format
    std::uint64_t instsExpanded = 0;    ///< mov-expansion splits
    std::uint64_t cdpsInserted = 0;
    std::uint64_t switchBranchesInserted = 0;

    /** Register views of these fields under `prefix` (e.g. "pass");
     *  this object must outlive the registry. */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix) const;
};

struct CritIcPassOptions
{
    SwitchMode switchMode = SwitchMode::Cdp;
    /** false = the Hoist-only design point. */
    bool convertToThumb = true;
    /** CritIC.Ideal: assume every instruction re-encodes. */
    bool forceConvert = false;
};

/**
 * Apply the CritIC transformation for the selected chains.  Each chain
 * is a list of instruction uids inside one basic block, in block order.
 * Re-lays out the program before returning.
 *
 * Every pass checks its own post-conditions through verify::PassVerifier
 * (structural always, differential dataflow under CRITICS_VERIFY=global)
 * and panics on an error-severity finding.  When `audit` is given (the
 * `critics_cli lint` path) findings — including a located advisory for
 * every skipped/blocked chain, explaining *why* it was not transformed —
 * accumulate in the audit instead of panicking.
 */
PassStats applyCritIcPass(
    program::Program &prog,
    const std::vector<std::vector<program::InstUid>> &chains,
    const CritIcPassOptions &options,
    verify::PassAudit *audit = nullptr);

/** OPP16: convert convertible runs of >= minRun instructions. */
PassStats applyOpp16Pass(program::Program &prog, unsigned minRun = 3,
                         verify::PassAudit *audit = nullptr);

/** Compress [78]: function-wide conversion avoiding expansion cases. */
PassStats applyCompressPass(program::Program &prog,
                            verify::PassAudit *audit = nullptr);

} // namespace critics::compiler

#endif // CRITICS_COMPILER_PASSES_HH
