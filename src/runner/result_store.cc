#include "runner/result_store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "stats/registry.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace critics::runner
{

namespace
{

void
writeStage(json::JsonWriter &w, const char *key,
           const cpu::StageBreakdown &s)
{
    w.beginObject(key)
        .field("fetch", s.fetch)
        .field("decode", s.decode)
        .field("issueWait", s.issueWait)
        .field("execute", s.execute)
        .field("commitWait", s.commitWait)
        .field("insts", s.insts)
        .endObject();
}

void
writeCache(json::JsonWriter &w, const char *key,
           const mem::CacheStats &c)
{
    w.beginObject(key)
        .field("accesses", c.accesses)
        .field("misses", c.misses)
        .field("prefetchFills", c.prefetchFills)
        .field("prefetchHits", c.prefetchHits)
        .endObject();
}

template <typename T>
bool
readUint(const json::JsonValue &obj, const char *key, T &out)
{
    const json::JsonValue *v = obj.find(key);
    if (!v)
        return false;
    const auto parsed = v->asUint();
    if (!parsed)
        return false;
    out = static_cast<T>(*parsed);
    return true;
}

bool
readDouble(const json::JsonValue &obj, const char *key, double &out)
{
    const json::JsonValue *v = obj.find(key);
    if (!v)
        return false;
    const auto parsed = v->asDouble();
    if (!parsed)
        return false;
    out = *parsed;
    return true;
}

bool
readStage(const json::JsonValue &parent, const char *key,
          cpu::StageBreakdown &s)
{
    const json::JsonValue *obj = parent.find(key);
    if (!obj || !obj->isObject())
        return false;
    return readDouble(*obj, "fetch", s.fetch) &&
           readDouble(*obj, "decode", s.decode) &&
           readDouble(*obj, "issueWait", s.issueWait) &&
           readDouble(*obj, "execute", s.execute) &&
           readDouble(*obj, "commitWait", s.commitWait) &&
           readUint(*obj, "insts", s.insts);
}

bool
readCache(const json::JsonValue &parent, const char *key,
          mem::CacheStats &c)
{
    const json::JsonValue *obj = parent.find(key);
    if (!obj || !obj->isObject())
        return false;
    return readUint(*obj, "accesses", c.accesses) &&
           readUint(*obj, "misses", c.misses) &&
           readUint(*obj, "prefetchFills", c.prefetchFills) &&
           readUint(*obj, "prefetchHits", c.prefetchHits);
}

} // namespace

std::string
resultToJson(const sim::RunResult &result)
{
    const cpu::CpuStats &c = result.cpu;
    json::JsonWriter w;
    w.beginObject();

    w.beginObject("cpu")
        .field("cycles", c.cycles)
        .field("committed", c.committed)
        .field("stallForIIcache", c.stallForIIcache)
        .field("stallForIRedirect", c.stallForIRedirect)
        .field("stallForRd", c.stallForRd)
        .field("decodeCdpBubbles", c.decodeCdpBubbles)
        .field("fetchedBytes", c.fetchedBytes)
        .field("condBranches", c.condBranches)
        .field("mispredicts", c.mispredicts)
        .field("fetchWindows", c.fetchWindows)
        .field("efetchAccuracy", c.efetchAccuracy);
    writeStage(w, "all", c.all);
    writeStage(w, "crit", c.crit);
    w.beginObject("mem");
    writeCache(w, "icache", c.mem.icache);
    writeCache(w, "dcache", c.mem.dcache);
    writeCache(w, "l2", c.mem.l2);
    w.beginObject("dram")
        .field("reads", c.mem.dram.reads)
        .field("rowHits", c.mem.dram.rowHits)
        .field("rowConflicts", c.mem.dram.rowConflicts)
        .field("activates", c.mem.dram.activates)
        .field("totalLatency", c.mem.dram.totalLatency)
        .endObject();
    w.beginObject("stride")
        .field("trains", c.mem.stride.trains)
        .field("issued", c.mem.stride.issued)
        .endObject();
    w.field("storeAccesses", c.mem.storeAccesses);
    w.endObject(); // mem
    w.endObject(); // cpu

    const energy::EnergyBreakdown &e = result.energy;
    w.beginObject("energy")
        .field("cpuCore", e.cpuCore)
        .field("icache", e.icache)
        .field("dcache", e.dcache)
        .field("l2", e.l2)
        .field("dram", e.dram)
        .field("socRest", e.socRest)
        .endObject();

    const compiler::PassStats &p = result.pass;
    w.beginObject("pass")
        .field("chainsAttempted", p.chainsAttempted)
        .field("chainsTransformed", p.chainsTransformed)
        .field("hoistFailures", p.hoistFailures)
        .field("localRenames", p.localRenames)
        .field("blockedRaw", p.blockedRaw)
        .field("blockedMem", p.blockedMem)
        .field("blockedCtl", p.blockedCtl)
        .field("blockedRename", p.blockedRename)
        .field("instsConverted", p.instsConverted)
        .field("instsExpanded", p.instsExpanded)
        .field("cdpsInserted", p.cdpsInserted)
        .field("switchBranchesInserted", p.switchBranchesInserted)
        .endObject();

    w.field("selectionCoverage", result.selectionCoverage)
        .field("staticThumbFraction", result.staticThumbFraction)
        .field("dynThumbFraction", result.dynThumbFraction)
        .endObject();
    return w.str();
}

std::optional<sim::RunResult>
resultFromJson(const json::JsonValue &json)
{
    if (!json.isObject())
        return std::nullopt;
    sim::RunResult r;

    const json::JsonValue *cpu = json.find("cpu");
    if (!cpu || !cpu->isObject())
        return std::nullopt;
    cpu::CpuStats &c = r.cpu;
    if (!(readUint(*cpu, "cycles", c.cycles) &&
          readUint(*cpu, "committed", c.committed) &&
          readUint(*cpu, "stallForIIcache", c.stallForIIcache) &&
          readUint(*cpu, "stallForIRedirect", c.stallForIRedirect) &&
          readUint(*cpu, "stallForRd", c.stallForRd) &&
          readUint(*cpu, "decodeCdpBubbles", c.decodeCdpBubbles) &&
          readUint(*cpu, "fetchedBytes", c.fetchedBytes) &&
          readUint(*cpu, "condBranches", c.condBranches) &&
          readUint(*cpu, "mispredicts", c.mispredicts) &&
          readUint(*cpu, "fetchWindows", c.fetchWindows) &&
          readDouble(*cpu, "efetchAccuracy", c.efetchAccuracy) &&
          readStage(*cpu, "all", c.all) &&
          readStage(*cpu, "crit", c.crit))) {
        return std::nullopt;
    }
    const json::JsonValue *m = cpu->find("mem");
    if (!m || !m->isObject())
        return std::nullopt;
    if (!(readCache(*m, "icache", c.mem.icache) &&
          readCache(*m, "dcache", c.mem.dcache) &&
          readCache(*m, "l2", c.mem.l2) &&
          readUint(*m, "storeAccesses", c.mem.storeAccesses))) {
        return std::nullopt;
    }
    const json::JsonValue *dram = m->find("dram");
    const json::JsonValue *stride = m->find("stride");
    if (!dram || !dram->isObject() || !stride || !stride->isObject())
        return std::nullopt;
    if (!(readUint(*dram, "reads", c.mem.dram.reads) &&
          readUint(*dram, "rowHits", c.mem.dram.rowHits) &&
          readUint(*dram, "rowConflicts", c.mem.dram.rowConflicts) &&
          readUint(*dram, "activates", c.mem.dram.activates) &&
          readUint(*dram, "totalLatency", c.mem.dram.totalLatency) &&
          readUint(*stride, "trains", c.mem.stride.trains) &&
          readUint(*stride, "issued", c.mem.stride.issued))) {
        return std::nullopt;
    }

    const json::JsonValue *energy = json.find("energy");
    if (!energy || !energy->isObject())
        return std::nullopt;
    energy::EnergyBreakdown &e = r.energy;
    if (!(readDouble(*energy, "cpuCore", e.cpuCore) &&
          readDouble(*energy, "icache", e.icache) &&
          readDouble(*energy, "dcache", e.dcache) &&
          readDouble(*energy, "l2", e.l2) &&
          readDouble(*energy, "dram", e.dram) &&
          readDouble(*energy, "socRest", e.socRest))) {
        return std::nullopt;
    }

    const json::JsonValue *pass = json.find("pass");
    if (!pass || !pass->isObject())
        return std::nullopt;
    compiler::PassStats &p = r.pass;
    if (!(readUint(*pass, "chainsAttempted", p.chainsAttempted) &&
          readUint(*pass, "chainsTransformed", p.chainsTransformed) &&
          readUint(*pass, "hoistFailures", p.hoistFailures) &&
          readUint(*pass, "localRenames", p.localRenames) &&
          readUint(*pass, "blockedRaw", p.blockedRaw) &&
          readUint(*pass, "blockedMem", p.blockedMem) &&
          readUint(*pass, "blockedCtl", p.blockedCtl) &&
          readUint(*pass, "blockedRename", p.blockedRename) &&
          readUint(*pass, "instsConverted", p.instsConverted) &&
          readUint(*pass, "instsExpanded", p.instsExpanded) &&
          readUint(*pass, "cdpsInserted", p.cdpsInserted) &&
          readUint(*pass, "switchBranchesInserted",
                   p.switchBranchesInserted))) {
        return std::nullopt;
    }

    if (!(readDouble(json, "selectionCoverage", r.selectionCoverage) &&
          readDouble(json, "staticThumbFraction",
                     r.staticThumbFraction) &&
          readDouble(json, "dynThumbFraction", r.dynThumbFraction))) {
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
