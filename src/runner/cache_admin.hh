/**
 * @file
 * Lifecycle management for the persistent result store: compact a
 * store that has accumulated superseded / old-schema / collision
 * records, and garbage-collect by age or size so an append-only cache
 * does not grow without bound.
 *
 * Both operations preserve surviving records *byte-for-byte* (lines
 * are copied, never re-serialized), so a compacted store reproduces
 * the original run's report digit for digit — the same hexfloat
 * round-trip guarantee the store itself makes.  They read through the
 * store's one scanner (scanStore) and rewrite through a temp file in
 * the store's directory followed by a rename, so a crash mid-operation
 * never corrupts the original.  The store's StoreLock is held across
 * the whole fold + rename, which excludes appenders and other
 * rewriters (see result_store.hh).
 */

#ifndef CRITICS_RUNNER_CACHE_ADMIN_HH
#define CRITICS_RUNNER_CACHE_ADMIN_HH

#include <cstdint>
#include <optional>
#include <string>

namespace critics::runner
{

/** What one compact/gc pass read, kept and dropped. */
struct CacheAdminStats
{
    std::size_t filesRead = 0;
    std::size_t recordsKept = 0;
    std::size_t superseded = 0; ///< earlier duplicates of a kept hash
    std::size_t oldSchema = 0;  ///< records from another schema version
    std::size_t malformed = 0;  ///< unparsable lines (truncated tails)
    std::size_t orphans = 0;    ///< hash field != hash(spec): collisions
                                ///< or stale hash-function leftovers
    std::size_t expired = 0;    ///< dropped by gc --max-age
    std::size_t evicted = 0;    ///< dropped oldest-first by --max-bytes
    std::uintmax_t bytesBefore = 0;
    std::uintmax_t bytesAfter = 0;

    std::uintmax_t
    bytesReclaimed() const
    {
        return bytesBefore > bytesAfter ? bytesBefore - bytesAfter : 0;
    }

    /** One-line human summary for the CLI. */
    std::string summary() const;
};

/**
 * Rewrite `path` in place dropping superseded, old-schema, malformed
 * and orphaned (stored hash != hash of stored spec — collision or
 * hash-function-change leftovers) records.  Live records keep their
 * bytes and relative order.  nullopt if the file cannot be read or
 * rewritten; a missing file compacts to an empty no-op result.
 */
std::optional<CacheAdminStats> compactStore(const std::string &path);

struct GcOptions
{
    /** Drop records older than this many seconds (0 = no age bound).
     *  Records without a writtenUnix stamp count as infinitely old. */
    std::uint64_t maxAgeSeconds = 0;
    /** After compaction and age filtering, evict oldest records until
     *  the store fits in this many bytes (0 = no size bound). */
    std::uintmax_t maxBytes = 0;
    /** "Now" for age math; 0 = current wall clock (tests pin this). */
    std::uint64_t nowUnix = 0;
};

/**
 * Bound a store's growth: compact (compactStore is gcStore without
 * bounds), then apply the age and size bounds of `opt`, evicting
 * oldest records first.
 */
std::optional<CacheAdminStats> gcStore(const std::string &path,
                                       const GcOptions &opt);

} // namespace critics::runner

#endif // CRITICS_RUNNER_CACHE_ADMIN_HH
