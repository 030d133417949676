#include "runner/cache_admin.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "runner/result_store.hh"
#include "support/logging.hh"

namespace critics::runner
{

namespace
{

/** A kept record: its bytes verbatim, and what gc orders it by. */
struct KeptLine
{
    std::string bytes; ///< exact bytes, newline stripped
    std::string hash;
    std::uint64_t writtenUnix = 0;
};

std::uintmax_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    return ec ? 0 : bytes;
}

/**
 * Fold the Good lines of `path` into `kept` with later-record-wins
 * dedup at the first-seen position (the store's load semantics),
 * dropping orphans (stored hash != hash of stored spec) and counting
 * everything dropped.  Rewrites run under the StoreLock and fold only
 * finished stores, so an unterminated tail is torn and counts as
 * malformed.
 */
void
foldStore(const std::string &path, std::vector<KeptLine> &kept,
          CacheAdminStats &stats)
{
    std::unordered_map<std::string, std::size_t> byHash;
    const auto consumed = scanStore(path, [&](StoreLine &line) {
        switch (line.kind) {
          case StoreLine::Kind::Malformed:
            ++stats.malformed;
            return;
          case StoreLine::Kind::OldSchema:
            ++stats.oldSchema;
            return;
          case StoreLine::Kind::Good:
            break;
        }
        const ResultRecord &record = line.record;
        if (hashHexOf(hashSpecString(record.spec)) != record.hash) {
            ++stats.orphans;
            return;
        }
        KeptLine keep{std::move(line.bytes), record.hash,
                      record.writtenUnix};
        const auto it = byHash.find(keep.hash);
        if (it != byHash.end()) {
            ++stats.superseded;
            kept[it->second] = std::move(keep); // last wins
        } else {
            byHash.emplace(keep.hash, kept.size());
            kept.push_back(std::move(keep));
        }
    });
    if (!consumed)
        return;
    ++stats.filesRead;
    const std::uintmax_t bytes = fileBytes(path);
    stats.bytesBefore += bytes;
    if (bytes > *consumed)
        ++stats.malformed;
}

/** Replace `path` with `kept`'s lines via temp-file + rename. */
bool
writeStore(const std::string &path,
           const std::vector<KeptLine> &kept,
           CacheAdminStats &stats)
{
    const std::string temp =
        path + ".tmp-" + std::to_string(::getpid());
    {
        std::ofstream out(temp, std::ios::trunc);
        if (!out)
            return false;
        for (const auto &entry : kept)
            out << entry.bytes << '\n';
        if (!out)
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        std::filesystem::remove(temp, ec);
        return false;
    }
    stats.recordsKept = kept.size();
    stats.bytesAfter = fileBytes(path);
    return true;
}

std::string
kib(std::uintmax_t bytes)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
    return buf;
}

} // namespace

std::string
CacheAdminStats::summary() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "kept %zu record(s); dropped %zu superseded, %zu old-schema, "
        "%zu malformed, %zu orphan, %zu expired, %zu evicted",
        recordsKept, superseded, oldSchema, malformed, orphans,
        expired, evicted);
    return std::string(buf) + "; " + kib(bytesReclaimed()) +
           " reclaimed (" + kib(bytesBefore) + " -> " +
           kib(bytesAfter) + ")";
}

std::optional<CacheAdminStats>
compactStore(const std::string &path)
{
    return gcStore(path, GcOptions{}); // gc without bounds
}

std::optional<CacheAdminStats>
gcStore(const std::string &path, const GcOptions &opt)
{
    CacheAdminStats stats;
    if (!std::filesystem::exists(path))
        return stats; // nothing on disk: an empty store is compact
    std::vector<KeptLine> kept;
    StoreLock lock(path);
    foldStore(path, kept, stats);
    if (stats.filesRead == 0)
        return stats;

    if (opt.maxAgeSeconds > 0) {
        std::uint64_t now = opt.nowUnix;
        if (now == 0) {
            now = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::seconds>(
                    std::chrono::system_clock::now()
                        .time_since_epoch())
                    .count());
        }
        const std::uint64_t cutoff =
            now > opt.maxAgeSeconds ? now - opt.maxAgeSeconds : 0;
        std::vector<KeptLine> young;
        for (auto &entry : kept) {
            // Unstamped (pre-timestamp) records count as infinitely
            // old: gc is the one place age must be conservative.
            if (entry.writtenUnix > 0 &&
                entry.writtenUnix >= cutoff) {
                young.push_back(std::move(entry));
            } else {
                ++stats.expired;
            }
        }
        kept = std::move(young);
    }

    if (opt.maxBytes > 0) {
        std::uintmax_t total = 0;
        for (const auto &entry : kept)
            total += entry.bytes.size() + 1;
        if (total > opt.maxBytes) {
            // Evict oldest first, ties broken by file order.
            std::vector<std::size_t> order(kept.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            std::stable_sort(order.begin(), order.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return kept[a].writtenUnix <
                                        kept[b].writtenUnix;
                             });
            std::vector<bool> evict(kept.size(), false);
            for (const std::size_t i : order) {
                if (total <= opt.maxBytes)
                    break;
                evict[i] = true;
                total -= kept[i].bytes.size() + 1;
                ++stats.evicted;
            }
            std::vector<KeptLine> survivors;
            for (std::size_t i = 0; i < kept.size(); ++i) {
                if (!evict[i])
                    survivors.push_back(std::move(kept[i]));
            }
            kept = std::move(survivors);
        }
    }

    if (!writeStore(path, kept, stats))
        return std::nullopt;
    return stats;
}

} // namespace critics::runner
