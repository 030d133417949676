/**
 * @file
 * A JobSpec names one experiment design point: an app profile, the
 * simulation options and a variant.  Its canonical spec string covers
 * every knob that can change a RunResult, so the FNV-1a content hash
 * is a correct persistent-cache key: any change to the profile, the
 * options or the variant produces a new hash, while presentation-only
 * state (the variant label) does not.
 */

#ifndef CRITICS_RUNNER_JOB_HH
#define CRITICS_RUNNER_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "workload/profile.hh"

namespace critics::runner
{

/**
 * Bump when RunResult semantics change (new fields, simulator fixes
 * that alter numbers, spec-string format changes, a new record
 * layout): every cached record from an older schema is ignored.
 * Schema 2 stores a result under its stat-registry names.
 */
constexpr int kResultSchemaVersion = 2;

/** The largest trace budget (ExperimentOptions::traceInsts) a command
 *  line or a serve request may ask for: 25x the largest run the repo's
 *  scripts make, and a bound on what one request can make a worker
 *  allocate. */
constexpr std::uint64_t kMaxInsts = 50'000'000;

/**
 * 64-bit FNV-1a over "critics-runner-schema-v<schema>|<spec>" — the
 * store's content hash for a raw spec string.  Exposed so the cache
 * admin (compact) can recompute a record's expected hash from its
 * stored spec and drop collision/orphan records whose `hash` field no
 * longer matches.
 */
std::uint64_t hashSpecString(const std::string &spec,
                             int schema = kResultSchemaVersion);

/** A 64-bit hash as a fixed-width lowercase hex string. */
std::string hashHexOf(std::uint64_t hash);

struct JobSpec
{
    workload::AppProfile profile;
    sim::Variant variant;
    sim::ExperimentOptions options;

    /**
     * Canonical `key=value;` rendering of every result-affecting knob.
     * Doubles are rendered as hex-floats so the string (and therefore
     * the hash) is bit-stable.
     */
    std::string specString() const;

    /** 64-bit FNV-1a over schema version + specString(). */
    std::uint64_t hash() const;

    /** hash() as a fixed-width lowercase hex string (the cache key). */
    std::string hashHex() const;

    /**
     * The subset of specString() that identifies the shared
     * AppExperiment (profile + options, no variant): jobs with equal
     * appKey() reuse one program/trace/mined profile.
     */
    std::string appKey() const;
};

/** Cross-product convenience: one job per (app, variant) pair. */
std::vector<JobSpec>
makeGrid(const std::vector<workload::AppProfile> &apps,
         const std::vector<sim::Variant> &variants,
         const sim::ExperimentOptions &options);

} // namespace critics::runner

#endif // CRITICS_RUNNER_JOB_HH
