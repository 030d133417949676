#include "runner/result_store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <type_traits>

#include "sim/report.hh"
#include "stats/registry.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace critics::runner
{

static_assert(std::is_standard_layout_v<sim::RunResult> &&
                  std::is_trivially_copyable_v<sim::RunResult>,
              "the record codec addresses RunResult fields by offset");

namespace
{

/** How the record's nested JSON reaches a leaf from the one before. */
struct LeafStep
{
    std::size_t keep = 0;           ///< groups left open
    std::vector<std::string> opens; ///< groups opened after those
    std::string key;                ///< the leaf's own name
};

struct Codec
{
    std::vector<ResultLeaf> leaves;
    std::vector<LeafStep> steps; ///< one per leaf
};

/** The leaves sim::bindRunResult registers for a prototype result,
 *  with their nesting: built once, never per record. */
const Codec &
codec()
{
    static const Codec instance = [] {
        const sim::RunResult proto{};
        stats::StatRegistry reg;
        sim::bindRunResult(reg, proto);
        Codec c;
        const auto add = [&](std::string path, const void *field,
                             bool counter) {
            const auto offset = static_cast<std::size_t>(
                static_cast<const char *>(field) -
                reinterpret_cast<const char *>(&proto));
            critics_assert(offset + 8 <= sizeof proto, "stat '", path,
                           "' is not a RunResult field");
            c.leaves.push_back({std::move(path), offset, counter});
        };
        reg.forEach([&](const stats::StatDef &def) {
            switch (def.kind) {
              case stats::StatKind::Counter:
                add(def.name, def.counter, true);
                break;
              case stats::StatKind::Value:
                add(def.name, def.value, false);
                break;
              case stats::StatKind::Vector:
                for (const auto &elem : def.elems) {
                    add(def.name + "." + elem.name,
                        elem.counter
                            ? static_cast<const void *>(elem.counter)
                            : elem.value,
                        elem.counter != nullptr);
                }
                break;
              default: // Formulas are derived: nothing to store
                break;
            }
        });
        std::vector<std::string> open;
        for (const ResultLeaf &leaf : c.leaves) {
            auto parts = stats::splitDots(leaf.path);
            LeafStep step;
            step.keep = stats::sharedGroups(open, parts);
            step.key = std::move(parts.back());
            parts.pop_back();
            step.opens.assign(parts.begin() + step.keep, parts.end());
            open = std::move(parts);
            c.steps.push_back(std::move(step));
        }
        return c;
    }();
    return instance;
}

} // namespace

const std::vector<ResultLeaf> &
resultLeaves()
{
    return codec().leaves;
}

std::string
resultToJson(const sim::RunResult &result)
{
    const Codec &c = codec();
    const auto *base = reinterpret_cast<const char *>(&result);
    json::JsonWriter w;
    w.beginObject();
    std::size_t depth = 0;
    for (std::size_t i = 0; i < c.leaves.size(); ++i) {
        const LeafStep &step = c.steps[i];
        for (; depth > step.keep; --depth)
            w.endObject();
        for (const std::string &group : step.opens)
            w.beginObject(group.c_str());
        depth += step.opens.size();
        const char *field = base + c.leaves[i].offset;
        if (c.leaves[i].counter) {
            std::uint64_t v;
            std::memcpy(&v, field, sizeof v);
            w.field(step.key.c_str(), v);
        } else {
            double v;
            std::memcpy(&v, field, sizeof v);
            w.field(step.key.c_str(), v);
        }
    }
    for (; depth > 0; --depth)
        w.endObject();
    w.endObject();
    return w.str();
}

std::optional<sim::RunResult>
resultFromJson(const json::JsonValue &json)
{
    if (!json.isObject())
        return std::nullopt;
    // An object being read and the index of its next member: a record
    // lists exactly resultToJson()'s members, in its order.
    struct Cursor
    {
        const json::JsonValue *object;
        std::size_t next;
    };
    const auto take = [](Cursor &cur,
                         const std::string &key) -> const json::JsonValue * {
        const auto &members = cur.object->members;
        if (cur.next == members.size() || members[cur.next].first != key)
            return nullptr;
        return &members[cur.next++].second;
    };
    const auto done = [](const Cursor &cur) {
        return cur.next == cur.object->members.size();
    };

    const Codec &c = codec();
    sim::RunResult r;
    auto *base = reinterpret_cast<char *>(&r);
    std::vector<Cursor> open{{&json, 0}};
    for (std::size_t i = 0; i < c.leaves.size(); ++i) {
        const LeafStep &step = c.steps[i];
        for (; open.size() > step.keep + 1; open.pop_back()) {
            if (!done(open.back()))
                return std::nullopt;
        }
        for (const std::string &group : step.opens) {
            const json::JsonValue *object = take(open.back(), group);
            if (!object || !object->isObject())
                return std::nullopt;
            open.push_back({object, 0});
        }
        const json::JsonValue *v = take(open.back(), step.key);
        if (!v)
            return std::nullopt;
        char *field = base + c.leaves[i].offset;
        if (c.leaves[i].counter) {
            const auto parsed = v->asUint();
            if (!parsed)
                return std::nullopt;
            std::memcpy(field, &*parsed, sizeof *parsed);
        } else {
            // Doubles are hex-float strings, never bare numbers.
            const auto parsed = v->kind == json::JsonValue::Kind::String
                ? v->asDouble()
                : std::nullopt;
            if (!parsed)
                return std::nullopt;
            std::memcpy(field, &*parsed, sizeof *parsed);
        }
    }
    for (; !open.empty(); open.pop_back()) {
        if (!done(open.back()))
            return std::nullopt;
    }
    return r;
}

namespace
{

/** write(2) all of `bytes`, resuming after EINTR; false if short. */
bool
writeAll(int fd, const std::string &bytes)
{
    const char *data = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        const ssize_t wrote = ::write(fd, data, left);
        if (wrote < 0 && errno == EINTR)
            continue;
        if (wrote <= 0)
            return false;
        data += wrote;
        left -= static_cast<std::size_t>(wrote);
    }
    return true;
}

/** Classify `line.bytes` and, for a Good line, fill `line.record`. */
void
classify(StoreLine &line)
{
    const auto doc = json::parseJson(line.bytes);
    if (!doc || !doc->isObject())
        return;
    const json::JsonValue *schema = doc->find("schema");
    if (!schema || !schema->asInt())
        return;
    if (*schema->asInt() != kResultSchemaVersion) {
        line.kind = StoreLine::Kind::OldSchema;
        return;
    }
    const json::JsonValue *hash = doc->find("hash");
    const json::JsonValue *spec = doc->find("spec");
    const json::JsonValue *result = doc->find("result");
    if (!hash || !hash->asString() || !spec || !spec->asString() ||
        !result) {
        return;
    }
    auto parsed = resultFromJson(*result);
    if (!parsed)
        return;
    auto str = [&](const char *key) {
        const json::JsonValue *v = doc->find(key);
        return v ? v->asString().value_or("") : std::string{};
    };
    ResultRecord &record = line.record;
    record.hash = *hash->asString();
    record.spec = *spec->asString();
    record.app = str("app");
    record.variant = str("variant");
    if (const json::JsonValue *v = doc->find("writtenUnix"))
        record.writtenUnix = v->asUint().value_or(0);
    record.result = *parsed;
    line.kind = StoreLine::Kind::Good;
}

} // namespace

std::uint64_t
scanStore(int fd, std::uint64_t from, const StoreLineFn &onLine)
{
    std::string chunk(std::size_t{1} << 16, '\0');
    std::string pending; // bytes [from + consumed, offset)
    std::uint64_t offset = from;
    std::uint64_t consumed = 0;
    for (;;) {
        const ssize_t got = ::pread(fd, chunk.data(), chunk.size(),
                                    static_cast<off_t>(offset));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            break;
        offset += static_cast<std::uint64_t>(got);
        pending.append(chunk.data(), static_cast<std::size_t>(got));
        std::size_t start = 0;
        for (std::size_t nl;
             (nl = pending.find('\n', start)) != std::string::npos;
             start = nl + 1) {
            if (nl > start) {
                StoreLine line;
                line.bytes.assign(pending, start, nl - start);
                classify(line);
                onLine(line);
            }
        }
        consumed += start;
        pending.erase(0, start);
    }
    return consumed;
}

std::optional<std::uint64_t>
scanStore(const std::string &path, const StoreLineFn &onLine)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    const std::uint64_t consumed = scanStore(fd, 0, onLine);
    ::close(fd);
    return consumed;
}

std::vector<ResultRecord>
readResultRecords(const std::string &path)
{
    std::vector<ResultRecord> records;
    std::unordered_map<std::string, std::size_t> byHash;
    scanStore(path, [&](StoreLine &line) {
        if (line.kind != StoreLine::Kind::Good)
            return;
        ResultRecord &record = line.record;
        const auto it = byHash.find(record.hash);
        if (it != byHash.end())
            records[it->second] = std::move(record); // last wins
        else {
            byHash.emplace(record.hash, records.size());
            records.push_back(std::move(record));
        }
    });
    return records;
}

StoreLock::StoreLock(const std::string &storePath)
{
    const auto dir = std::filesystem::path(storePath).parent_path();
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
    }
    fd_ = ::open((storePath + ".lock").c_str(),
                 O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    while (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
    }
}

StoreLock::~StoreLock()
{
    if (fd_ >= 0)
        ::close(fd_); // releases the flock
}

std::string
cacheDir()
{
    if (const char *env = std::getenv("CRITICS_CACHE_DIR");
        env && *env) {
        return env;
    }
    return ".critics-cache";
}

ResultStore::ResultStore(std::string path) : path_(std::move(path))
{
    if (path_.empty())
        path_ = cacheDir() + "/results.jsonl";
    refresh();
}

ResultStore::~ResultStore()
{
    std::lock_guard<std::mutex> guard(lock_);
    if (fd_ >= 0)
        ::close(fd_);
    if (readFd_ >= 0)
        ::close(readFd_);
}

void
ResultStore::refresh()
{
    std::lock_guard<std::mutex> guard(lock_);
    struct stat viaPath{};
    if (::stat(path_.c_str(), &viaPath) != 0) {
        forgetLocked(); // removed, or not created yet
        return;
    }
    struct stat viaFd{};
    const bool sameFile =
        readFd_ >= 0 && ::fstat(readFd_, &viaFd) == 0 &&
        viaFd.st_dev == viaPath.st_dev &&
        viaFd.st_ino == viaPath.st_ino &&
        static_cast<std::uint64_t>(viaPath.st_size) >= indexed_;
    if (!sameFile) {
        // First load, or a rewriter replaced the file (or something
        // truncated it): the indexed prefix is gone, start over.
        forgetLocked();
        readFd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
        if (readFd_ < 0)
            return;
    }
    indexFromLocked();
}

void
ResultStore::indexFromLocked()
{
    std::size_t malformed = 0;
    indexed_ += scanStore(readFd_, indexed_, [&](StoreLine &line) {
        ++parsedLines_;
        if (line.kind == StoreLine::Kind::Malformed)
            ++malformed;
        if (line.kind != StoreLine::Kind::Good)
            return;
        // Last record wins: later appends supersede earlier ones.
        ResultRecord &record = line.record;
        entries_[record.hash] =
            Entry{std::move(record.spec), record.result};
    });
    if (malformed > 0) {
        critics_warn("result cache ", path_, ": skipped ", malformed,
                     " malformed record(s)");
    }
}

void
ResultStore::forgetLocked()
{
    if (readFd_ >= 0) {
        ::close(readFd_);
        readFd_ = -1;
    }
    indexed_ = 0;
    entries_.clear();
}

std::optional<sim::RunResult>
ResultStore::lookup(const JobSpec &spec) const
{
    return lookup(spec.hashHex(), spec.specString());
}

std::optional<sim::RunResult>
ResultStore::lookup(const std::string &hashHex,
                    const std::string &spec) const
{
    std::lock_guard<std::mutex> guard(lock_);
    const auto it = entries_.find(hashHex);
    if (it == entries_.end()) {
        ++misses_;
        return std::nullopt;
    }
    if (it->second.spec != spec) {
        // Hash collision (or a stale record from a hash-function
        // change): a miss, counted separately so `cache compact` and
        // the runner.cache stats can surface the rot.
        ++collisions_;
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    return it->second.result;
}

void
ResultStore::insert(const JobSpec &spec, const sim::RunResult &result)
{
    insert(spec.hashHex(), spec.specString(), spec.profile.name,
           spec.variant.label, result);
}

void
ResultStore::insert(const std::string &hashHex, const std::string &spec,
                    const std::string &app, const std::string &variant,
                    const sim::RunResult &result)
{
    const std::uint64_t now = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    json::JsonWriter w;
    w.beginObject()
        .field("schema", kResultSchemaVersion)
        .field("hash", hashHex)
        .field("app", app)
        .field("variant", variant)
        .field("writtenUnix", now)
        .field("spec", spec);
    const std::string record =
        w.str() + ",\"result\":" + resultToJson(result) + "}\n";

    std::lock_guard<std::mutex> guard(lock_);
    entries_[hashHex] = Entry{spec, result};
    ++inserts_;
    appendLocked(record);
}

void
ResultStore::appendLocked(const std::string &lines)
{
    // One append = one write(2) to an O_APPEND descriptor under the
    // StoreLock: concurrent writer processes (parallel `run`s, the
    // serve daemon) serialize whole lines, and no rewriter can rename
    // the file away until the write is done.  A crash mid-write leaves
    // at most one unterminated tail, which the scanner never hands
    // over.
    StoreLock storeLock(path_);
    struct stat viaFd{}, viaPath{};
    if (fd_ >= 0 &&
        (::fstat(fd_, &viaFd) != 0 ||
         ::stat(path_.c_str(), &viaPath) != 0 ||
         viaFd.st_dev != viaPath.st_dev ||
         viaFd.st_ino != viaPath.st_ino)) {
        // A rewriter replaced the file (or clear() removed it) since
        // the last append: the descriptor names an orphaned inode.
        ::close(fd_);
        fd_ = -1;
    }
    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            critics_warn("cannot open result cache ", path_,
                         " for append; results will not persist");
            return;
        }
    }
    if (!writeAll(fd_, lines)) {
        critics_warn("short write to result cache ", path_,
                     "; record may be truncated");
    }
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> guard(lock_);
    return entries_.size();
}

std::uint64_t
ResultStore::hits() const
{
    std::lock_guard<std::mutex> guard(lock_);
    return hits_;
}

std::uint64_t
ResultStore::misses() const
{
    std::lock_guard<std::mutex> guard(lock_);
    return misses_;
}

std::uint64_t
ResultStore::inserts() const
{
    std::lock_guard<std::mutex> guard(lock_);
    return inserts_;
}

std::uint64_t
ResultStore::collisions() const
{
    std::lock_guard<std::mutex> guard(lock_);
    return collisions_;
}

void
ResultStore::registerStats(stats::StatRegistry &reg,
                           const std::string &prefix) const
{
    // Counter views are read without the lock at export time; a stale
    // 64-bit aligned load is harmless for observability.
    reg.addCounter(prefix + ".hits", hits_, "cache hits served");
    reg.addCounter(prefix + ".misses", misses_, "cache misses");
    reg.addCounter(prefix + ".inserts", inserts_, "records appended");
    reg.addCounter(prefix + ".collisions", collisions_,
                   "hash matches with a different stored spec");
    reg.addCounter(prefix + ".parsedLines", parsedLines_,
                   "store lines parsed since construction");
    reg.addFormula(prefix + ".entries",
                   [this] { return static_cast<double>(size()); },
                   "records resident");
}

void
ResultStore::clear()
{
    std::lock_guard<std::mutex> guard(lock_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    {
        StoreLock storeLock(path_);
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }
    forgetLocked();
}

} // namespace critics::runner
