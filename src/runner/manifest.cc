#include "runner/manifest.hh"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "runner/result_store.hh"
#include "support/json.hh"

namespace critics::runner
{

std::size_t
RunManifest::cachedCount() const
{
    std::size_t count = 0;
    for (const auto &job : jobs)
        count += job.fromCache ? 1 : 0;
    return count;
}

std::size_t
RunManifest::simulatedCount() const
{
    std::size_t count = 0;
    for (const auto &job : jobs)
        count += (job.ok && !job.fromCache) ? 1 : 0;
    return count;
}

std::size_t
RunManifest::failedCount() const
{
    std::size_t count = 0;
    for (const auto &job : jobs)
        count += job.ok ? 0 : 1;
    return count;
}

std::uint64_t
RunManifest::totalSimInsts() const
{
    std::uint64_t insts = 0;
    for (const auto &job : jobs)
        insts += job.simInsts;
    return insts;
}

double
RunManifest::throughput() const
{
    return wallSeconds > 0.0
        ? static_cast<double>(totalSimInsts()) / wallSeconds : 0.0;
}

namespace
{

/** Opens the document and writes the fields before `totals`; the
 *  interrupted head has no wallSeconds and is always interrupted. */
void
writeHead(json::JsonWriter &w, const RunManifest &m, bool final)
{
    w.beginObject()
        .field("schema", m.schema)
        .field("batch", m.batch)
        .field("git", m.gitDescribe)
        .field("startedUnix", m.startedUnix);
    if (final)
        w.fieldReadable("wallSeconds", m.wallSeconds);
    w.field("interrupted", !final || m.interrupted);
    if (!m.traceId.empty())
        w.field("traceId", m.traceId);
}

} // namespace

std::string
JobRecord::toJson() const
{
    json::JsonWriter w;
    w.beginObject()
        .field("app", app)
        .field("variant", variant)
        .field("hash", hash)
        .field("ok", ok)
        .field("fromCache", fromCache)
        .field("attempts", attempts)
        .fieldReadable("wallSeconds", wallSeconds)
        .field("simInsts", simInsts)
        .fieldReadable("instsPerSec", instsPerSec())
        .field("error", error)
        .endObject();
    return w.str();
}

std::string
RunManifest::toJson() const
{
    json::JsonWriter w;
    writeHead(w, *this, /*final=*/true);
    w.beginObject("totals")
        .field("jobs", static_cast<std::uint64_t>(jobs.size()))
        .field("cached", static_cast<std::uint64_t>(cachedCount()))
        .field("simulated",
               static_cast<std::uint64_t>(simulatedCount()))
        .field("failed", static_cast<std::uint64_t>(failedCount()))
        .field("simInsts", totalSimInsts())
        .fieldReadable("instsPerSec", throughput())
        .endObject();
    w.beginObject("runnerStats")
        .field("cacheHits", runnerStats.cacheHits)
        .field("cacheMisses", runnerStats.cacheMisses)
        .field("cacheInserts", runnerStats.cacheInserts)
        .field("cacheCollisions", runnerStats.cacheCollisions)
        .field("poolTasks", runnerStats.poolTasks)
        .field("poolThreads", runnerStats.poolThreads)
        .field("verifyChecks", runnerStats.verifyChecks)
        .field("verifyErrors", runnerStats.verifyErrors)
        .field("verifyAdvisories", runnerStats.verifyAdvisories)
        .endObject();
    std::string out = w.beginArray("jobs").str();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        out += (i ? "," : "") + jobs[i].toJson();
    return out + "]}";
}

std::string
RunManifest::interruptedHead() const
{
    json::JsonWriter w;
    writeHead(w, *this, /*final=*/false);
    return w.beginArray("jobs").str();
}

std::string
RunManifest::write(const std::string &dir) const
{
    std::string outDir = dir;
    if (outDir.empty())
        outDir = cacheDir() + "/manifests";
    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    // Renamed into place, so a reader never sees a torn manifest.
    const std::string path = outDir + "/" + batch + ".json";
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    out << toJson() << "\n";
    out.close();
    if (out)
        std::filesystem::rename(tmp, path, ec);
    if (!out || ec) {
        std::filesystem::remove(tmp, ec);
        return "";
    }
    return path;
}

bool
RunManifest::read(const std::string &path, RunManifest &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto doc = json::parseJson(buffer.str());
    if (!doc || !doc->isObject())
        return false;

    out = RunManifest{};
    if (const json::JsonValue *v = doc->find("batch"))
        out.batch = v->asString().value_or("");
    if (const json::JsonValue *v = doc->find("git"))
        out.gitDescribe = v->asString().value_or("");
    if (const json::JsonValue *v = doc->find("schema"))
        out.schema = static_cast<int>(v->asInt().value_or(0));
    if (const json::JsonValue *v = doc->find("startedUnix"))
        out.startedUnix = v->asUint().value_or(0);
    if (const json::JsonValue *v = doc->find("wallSeconds"))
        out.wallSeconds = v->asDouble().value_or(0.0);
    if (const json::JsonValue *v = doc->find("interrupted"))
        out.interrupted = v->asBool().value_or(false);
    if (const json::JsonValue *v = doc->find("traceId"))
        out.traceId = v->asString().value_or("");
    // Optional (absent in manifests written before the counters, and
    // in interrupted heads).
    if (const json::JsonValue *rs = doc->find("runnerStats");
        rs && rs->isObject()) {
        auto uint = [&](const char *key) {
            const json::JsonValue *v = rs->find(key);
            return v ? v->asUint().value_or(0) : 0;
        };
        out.runnerStats.cacheHits = uint("cacheHits");
        out.runnerStats.cacheMisses = uint("cacheMisses");
        out.runnerStats.cacheInserts = uint("cacheInserts");
        out.runnerStats.cacheCollisions = uint("cacheCollisions");
        out.runnerStats.poolTasks = uint("poolTasks");
        out.runnerStats.poolThreads = uint("poolThreads");
        out.runnerStats.verifyChecks = uint("verifyChecks");
        out.runnerStats.verifyErrors = uint("verifyErrors");
        out.runnerStats.verifyAdvisories = uint("verifyAdvisories");
    }
    // Required: every job names its app, variant, hash and verdict; a
    // manifest that does not is rejected.
    const json::JsonValue *jobs = doc->find("jobs");
    if (!jobs || !jobs->isArray())
        return false;
    for (const auto &elem : jobs->elements) {
        if (!elem.isObject())
            return false;
        auto text = [&](const char *key) {
            const json::JsonValue *v = elem.find(key);
            return v ? v->asString() : std::nullopt;
        };
        const json::JsonValue *okValue = elem.find("ok");
        auto app = text("app");
        auto variant = text("variant");
        auto hash = text("hash");
        const auto ok = okValue ? okValue->asBool() : std::nullopt;
        if (!app || !variant || !hash || !ok)
            return false;
        JobRecord job;
        job.app = std::move(*app);
        job.variant = std::move(*variant);
        job.hash = std::move(*hash);
        job.ok = *ok;
        if (const json::JsonValue *v = elem.find("fromCache"))
            job.fromCache = v->asBool().value_or(false);
        if (const json::JsonValue *v = elem.find("attempts")) {
            job.attempts =
                static_cast<unsigned>(v->asUint().value_or(0));
        }
        if (const json::JsonValue *v = elem.find("wallSeconds"))
            job.wallSeconds = v->asDouble().value_or(0.0);
        if (const json::JsonValue *v = elem.find("simInsts"))
            job.simInsts = v->asUint().value_or(0);
        if (const json::JsonValue *v = elem.find("error"))
            job.error = v->asString().value_or("");
        out.jobs.push_back(std::move(job));
    }
    return true;
}

std::string
RunManifest::summaryLine() const
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "[%s] %zu jobs: %zu simulated, %zu cached, %zu failed | "
        "%.2fs wall | %.2fM sim-insts/s | git %s",
        batch.c_str(), jobs.size(), simulatedCount(), cachedCount(),
        failedCount(), wallSeconds, throughput() / 1e6,
        gitDescribe.c_str());
    return buf;
}

std::string
gitDescribe()
{
    // A popen costs ~5 ms and a serve daemon writes a manifest per
    // batch: ask git once per process.
    static const std::string described = [] {
        std::FILE *pipe = ::popen(
            "git describe --always --dirty 2>/dev/null", "r");
        if (!pipe)
            return std::string("unknown");
        std::array<char, 128> buf{};
        std::string out;
        while (std::fgets(buf.data(), buf.size(), pipe))
            out += buf.data();
        ::pclose(pipe);
        while (!out.empty() &&
               (out.back() == '\n' || out.back() == '\r'))
            out.pop_back();
        return out.empty() ? std::string("unknown") : out;
    }();
    return described;
}

} // namespace critics::runner
