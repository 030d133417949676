/**
 * @file
 * Persistent experiment-result cache: an append-only JSONL file, one
 * record per completed job, keyed by the JobSpec content hash and the
 * result schema version.  This module owns the store's whole on-disk
 * protocol: its record codec, its lock, its line reading and its line
 * classification.
 *
 * The codec is one of the stat registry's exporters (stats/registry.hh):
 * a record's `result` holds every leaf sim::bindRunResult registers
 * (each Counter, Value and Vector element; Formulas are derived and
 * not stored), nested by dotted name as the registry's own JSON is.
 * Counters are integer tokens and doubles hex-float strings, so a warm
 * run reproduces a cold run's tables bit for bit, and a field a
 * component registers is stored with no second field list to keep.
 *
 * The lock: every writer holds StoreLock, an exclusive flock(2) on the
 * sidecar `<store>.lock`.  An appender (insert) holds it around one
 * O_APPEND write(2) of a whole line; clear() and the rewriters
 * (cache_admin.hh) across their fold + temp + rename.  The sidecar is
 * never renamed, so every holder contends on one inode; a lock on the
 * data file would be orphaned by the very rename it guards.  With no
 * rename possible while it holds the lock, an appender checks once
 * that its descriptor still names the path and reopens if not, so
 * records never interleave or land on an orphaned inode.  A writer
 * dying mid-write leaves at most one unterminated tail.
 *
 * The scanner: scanStore() is the one reader of store files, used by
 * the index, readResultRecords() and the rewriters, so all agree on
 * what a record is.  It never hands over an unterminated tail: under
 * the lock that tail is torn, and without it the tail may be a write
 * in progress, read once its newline lands.
 *
 * Incremental index: the index covers the file up to the byte past the
 * last line scanned, and the store keeps an O_RDONLY descriptor on the
 * indexed file, which pins its inode (its number cannot be reused by a
 * later rewrite).  refresh() scans only the appended bytes while the
 * path names that inode and the file has not shrunk, and otherwise
 * re-reads (or forgets) the whole file.  The invariant every test
 * checks: after any appends, rewrites and removals, the index after
 * refresh() equals the one a fresh ResultStore(path) builds.
 */

#ifndef CRITICS_RUNNER_RESULT_STORE_HH
#define CRITICS_RUNNER_RESULT_STORE_HH

#include <functional>
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

/** One stored RunResult field: a leaf sim::bindRunResult registers. */
struct ResultLeaf
{
    std::string path;       ///< dotted registry name, e.g. "cpu.cycles"
    std::size_t offset = 0; ///< byte offset of the field in RunResult
    bool counter = false;   ///< a std::uint64_t; else a double
};

/** Every leaf, in the order resultToJson() writes them; built once from
 *  a prototype RunResult.  With every field registered, their count
 *  times 8 is sizeof(RunResult). */
const std::vector<ResultLeaf> &resultLeaves();

/** Serialize every RunResult leaf (bit-exact doubles). */
std::string resultToJson(const sim::RunResult &result);

/** Inverse of resultToJson(); nullopt unless `json` holds exactly its
 *  leaves, in its order and of its types (a missing, extra or mistyped
 *  leaf rejects the record). */
std::optional<sim::RunResult> resultFromJson(const json::JsonValue &json);

/**
 * Directory holding the cache and the run manifests.  Resolution:
 * $CRITICS_CACHE_DIR if set, else `.critics-cache` under the current
 * working directory.
 */
std::string cacheDir();

/**
 * RAII exclusive flock(2) on `<storePath>.lock`, the one lock every
 * writer of the store takes (see the file comment).  Blocks until
 * held; if the sidecar cannot be created the holder proceeds unlocked,
 * as it would fail to write the store anyway.
 */
class StoreLock
{
  public:
    explicit StoreLock(const std::string &storePath);
    ~StoreLock();

    StoreLock(const StoreLock &) = delete;
    StoreLock &operator=(const StoreLock &) = delete;

  private:
    int fd_ = -1;
};

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

/** One newline-terminated line of a store file, classified. */
struct StoreLine
{
    enum class Kind { Good, OldSchema, Malformed };

    Kind kind = Kind::Malformed;
    std::string bytes;   ///< the line verbatim, newline stripped
    ResultRecord record; ///< set for Good lines only
};

using StoreLineFn = std::function<void(StoreLine &)>;

/**
 * The store's one line scanner: call `onLine` on every non-empty
 * newline-terminated line of the store file open on `fd`, from byte
 * `from` on, in file order.  A Good line is a current-schema record
 * with a string hash and spec and a complete result; a line of
 * another schema version is OldSchema; anything else is Malformed.
 * Returns the bytes consumed: up to just past the last newline, so an
 * unterminated tail is left for a later scan.
 */
std::uint64_t scanStore(int fd, std::uint64_t from,
                        const StoreLineFn &onLine);

/** scanStore() over the whole file at `path`; nullopt if it cannot be
 *  opened (a missing store holds nothing). */
std::optional<std::uint64_t> scanStore(const std::string &path,
                                       const StoreLineFn &onLine);

/**
 * Read every Good record of a results.jsonl file, in file order with
 * later duplicates of a hash superseding earlier ones (the store's
 * append semantics).  Unlike ResultStore, this keeps the app/variant
 * provenance — the key `critics_cli diff` matches runs by, since a
 * config change alters every content hash.
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
     * Append one completed job as one O_APPEND write under the
     * StoreLock, so concurrent writer processes never tear each
     * other's lines (see the file comment for the exact guarantee).
     */
    void insert(const JobSpec &spec, const sim::RunResult &result);

    /** Same append with precomputed key strings (see lookup). */
    void insert(const std::string &hashHex, const std::string &spec,
                const std::string &app, const std::string &variant,
                const sim::RunResult &result);

    std::size_t size() const;
    const std::string &path() const { return path_; }

    // Lifetime counters (process-cumulative, not persisted).
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

    /** Delete the backing file (under the StoreLock) and forget all
     *  records. */
    void clear();

    /**
     * Bring the index up to date with the backing file: parse only the
     * lines appended since the last refresh, or re-read the whole file
     * if it was replaced, truncated or removed (see the file comment).
     * How a long-running daemon picks up records appended by other
     * processes or a completed `cache compact` or `gc`.
     */
    void refresh();

  private:
    void indexFromLocked(); ///< scan [indexed_, EOF) of readFd_
    void forgetLocked();    ///< drop the index and the pinned inode
    /** One O_APPEND write of whole lines under the StoreLock,
     *  reopening first if the append fd no longer names the path. */
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
