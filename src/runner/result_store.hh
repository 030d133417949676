/**
 * @file
 * Persistent experiment-result cache: an append-only JSONL file, one
 * record per completed job, keyed by the JobSpec content hash and the
 * result schema version.  Records round-trip every RunResult field
 * bit-exactly (doubles as hex-floats), so a warm run reproduces a cold
 * run's tables digit for digit.
 *
 * Multi-writer guarantee: each append (one record from insert(), or a
 * shard's records from absorb()) is a single write(2) to an O_APPEND
 * descriptor under an exclusive flock(), so any number of processes
 * (shards of one sweep, concurrent sweeps) may append to the same file
 * without ever interleaving partial lines — the kernel serializes
 * whole records.  The only non-atomic failure mode left is a process
 * dying mid-write, which leaves at most one truncated tail line.  In-
 * process, a mutex serializes appends across the worker threads.
 *
 * Cache rewriters (`cache merge/compact/gc`) hold the same flock
 * across their temp+rename replacement of the file; an appender that
 * wakes up holding a lock on the replaced inode detects the swap
 * (path no longer names its inode) and reopens before writing, so no
 * record is ever appended to an orphaned file.
 *
 * Incremental index: the in-memory index covers the file up to the
 * byte just past the last newline-terminated line it parsed, and the
 * store keeps an O_RDONLY descriptor on the file it indexed.  That
 * descriptor pins the inode, so its number cannot be reused by a later
 * rewrite and mistaken for the indexed file.  refresh() parses only
 * the bytes appended since, as long as the path still names the
 * pinned inode and the file has not shrunk; after a rewriter swapped
 * the inode, a truncation or a removal it re-reads (or forgets) the
 * whole file.  Construction is a refresh() from offset 0.  Only
 * newline-terminated lines are indexed: an unterminated tail is a
 * write in progress or a torn record, and stays unindexed until its
 * newline lands (a torn record never gets one; the next append makes
 * it part of a malformed line).  The invariant every test checks:
 * after any sequence of appends, rewrites and removals, the index
 * after refresh() equals the one a fresh ResultStore(path) builds.
 */

#ifndef CRITICS_RUNNER_RESULT_STORE_HH
#define CRITICS_RUNNER_RESULT_STORE_HH

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runner/job.hh"

namespace critics::json
{
class JsonValue;
}

namespace critics::stats
{
class StatRegistry;
}

namespace critics::runner
{

/** Serialize every RunResult field (bit-exact doubles). */
std::string resultToJson(const sim::RunResult &result);

/** Inverse of resultToJson(); nullopt if any field is missing. */
std::optional<sim::RunResult> resultFromJson(const json::JsonValue &json);

/**
 * Directory holding the cache and the run manifests.  Resolution:
 * $CRITICS_CACHE_DIR if set, else `.critics-cache` under the current
 * working directory.
 */
std::string cacheDir();

/** One record of a result-store file, with its provenance fields. */
struct ResultRecord
{
    std::string hash;
    std::string app;
    std::string variant;
    std::string spec;
    std::uint64_t writtenUnix = 0; ///< 0 in pre-timestamp records
    sim::RunResult result;
};

/**
 * Read every well-formed current-schema record of a results.jsonl
 * file, in file order with later duplicates of a hash superseding
 * earlier ones (the store's append semantics).  Unlike ResultStore,
 * this keeps the app/variant provenance — the key `critics_cli diff`
 * matches runs by, since a config change alters every content hash.
 */
std::vector<ResultRecord> readResultRecords(const std::string &path);

class ResultStore
{
  public:
    /** Opens (and loads) `path`; "" means cacheDir()/results.jsonl. */
    explicit ResultStore(std::string path = "");
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Cached result for this spec, or nullopt.  A hash match with a
     * different stored spec string (a collision, or a hash-function
     * change) is treated as a miss.
     */
    std::optional<sim::RunResult> lookup(const JobSpec &spec) const;

    /** Same lookup with the spec string and content hash precomputed
     *  by the caller: spec strings are ~2 KB canonical renders, and
     *  the orchestrator hashes each job exactly once per batch. */
    std::optional<sim::RunResult> lookup(const std::string &hashHex,
                                         const std::string &spec) const;

    /**
     * Append one completed job as one flock-guarded O_APPEND write,
     * so concurrent writer processes never tear each other's lines
     * (see the file comment for the exact guarantee).
     */
    void insert(const JobSpec &spec, const sim::RunResult &result);

    /** Same append with precomputed key strings (see lookup). */
    void insert(const std::string &hashHex, const std::string &spec,
                const std::string &app, const std::string &variant,
                const sim::RunResult &result);

    std::size_t size() const;
    const std::string &path() const { return path_; }

    // Lifetime counters (process-cumulative, not persisted).
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t inserts() const;
    /** Lookups whose hash matched but stored spec differed (a true
     *  collision, or a stale record from a hash-function change);
     *  `cache compact` drops such records from disk. */
    std::uint64_t collisions() const;

    /** Register cache counters under `prefix` (conventionally
     *  "runner.cache"); the store must outlive the registry. */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix) const;

    /** Delete the backing file and forget all records. */
    void clear();

    /**
     * Bring the index up to date with the backing file: parse only the
     * lines appended since the last refresh, or re-read the whole file
     * if it was replaced, truncated or removed (see the file comment).
     * How a long-running daemon picks up records appended by other
     * processes or a completed `cache merge`.
     */
    void refresh();

    /**
     * Append the well-formed, newline-terminated current-schema records
     * of the store file `shardPath` verbatim (the shard writer's
     * bytes, as `cache merge` keeps them) in one flock-guarded append,
     * then index them.  Malformed, old-schema and unterminated lines
     * are dropped; a missing file absorbs nothing.  Like insert(), it
     * does not deduplicate: a record whose hash is already stored is
     * appended and supersedes the older one.  Returns the number of
     * records appended.
     */
    std::size_t absorb(const std::string &shardPath);

  private:
    void refreshLocked();
    void indexFromLocked(); ///< parse [indexed_, EOF) of readFd_
    void forgetLocked();    ///< drop the index and the pinned inode
    void openLocked();      ///< open the append fd (caller holds lock_)
    /** One flock-guarded O_APPEND write of whole lines, revalidating
     *  that the append fd still names the live file. */
    void appendLocked(const std::string &lines);

    struct Entry
    {
        std::string spec;
        sim::RunResult result;
    };

    mutable std::mutex lock_;
    std::string path_;
    std::unordered_map<std::string, Entry> entries_;
    int fd_ = -1;     ///< lazily-opened O_APPEND descriptor
    int readFd_ = -1; ///< O_RDONLY on the indexed file (pins its inode)
    std::uint64_t indexed_ = 0; ///< bytes of readFd_ parsed so far
    /** Store lines parsed since construction (a full load counts
     *  every line, an incremental refresh only the new ones). */
    std::uint64_t parsedLines_ = 0;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
    mutable std::uint64_t collisions_ = 0;
};

} // namespace critics::runner

#endif // CRITICS_RUNNER_RESULT_STORE_HH
