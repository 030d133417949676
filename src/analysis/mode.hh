/**
 * @file
 * The analyze path is the flat one (DESIGN.md §10); there is no other.
 * This header exists only because critbench/src/traced.cc includes it
 * and calls flatAnalyzeEnabled(); it goes with the next change to the
 * benchmark.
 */

#ifndef CRITICS_ANALYSIS_MODE_HH
#define CRITICS_ANALYSIS_MODE_HH

namespace critics::analysis
{

constexpr bool flatAnalyzeEnabled() { return true; }

} // namespace critics::analysis

#endif // CRITICS_ANALYSIS_MODE_HH
