/**
 * @file
 * critbench: the benchmark of record.
 *
 *   critbench --workload sweep_cold|sweep_warm|serve_mixed --seed N
 *             --seconds S --trace 0|1 [--threads T] [--workers W]
 *
 * --trace 0 measures the workload with tracing off and prints the
 * end-to-end metrics; --trace 1 makes the traced run, which prints the
 * per-layer metrics of all three workloads.  The last line of stdout
 * is the result JSON; the lines before it (prefixed "# ") give the
 * host fingerprint, the pinned environment, sample counts and checks.
 */

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>
#include <unistd.h>

#include "runner/manifest.hh"
#include "runner/job.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

using namespace critbench;

int
usage(const char *why)
{
    std::cerr << "critbench: " << why << "\n"
              << "usage: critbench --workload sweep_cold|sweep_warm|"
                 "serve_mixed --seed N --seconds S --trace 0|1\n"
                 "                 [--threads T] [--workers W]\n";
    return 2;
}

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() ||
        !std::all_of(text.begin(), text.end(),
                     [](char c) { return c >= '0' && c <= '9'; }))
        return false;
    try {
        out = std::stoull(text);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Set or clear every CRITICS_* variable before the library reads
 *  one, so a shell that exports, say, CRITICS_VERIFY=global cannot
 *  skew a run.  Returns the pinned values. */
std::string
pinEnvironment(const Context &ctx)
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        if (entry.rfind("CRITICS_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const auto &name : names)
        ::unsetenv(name.c_str());
    const std::vector<std::pair<const char *, std::string>> pinned = {
        {"CRITICS_THREADS", std::to_string(ctx.threads)},
        {"CRITICS_VERIFY", "structural"},
        {"CRITICS_CACHE_DIR", ctx.workDir + "/cache"},
    };
    std::string text;
    for (const auto &[name, value] : pinned) {
        ::setenv(name, value.c_str(), 1);
        text += std::string(name) + "=" + value + " ";
    }
    return text + "(CRITICS_FLAT_ANALYZE and CRITICS_DEBUG unset)";
}

std::string
fingerprint(const Context &ctx, unsigned nproc)
{
    std::string fp = "{\"cpu\": \"" + cpuModel() + "\"";
    fp += ", \"nproc\": " + std::to_string(nproc);
#if defined(__clang__)
    fp += ", \"compiler\": \"clang " __clang_version__ "\"";
#elif defined(__GNUC__)
    fp += ", \"compiler\": \"gcc " __VERSION__ "\"";
#endif
    fp += ", \"build_type\": \"" CRITBENCH_BUILD_TYPE "\"";
    fp += ", \"git\": \"" + critics::runner::gitDescribe() + "\"";
    fp += ", \"verify\": \"structural\"";
    fp += ", \"threads\": " + std::to_string(ctx.threads);
    fp += ", \"serve_workers\": " + std::to_string(ctx.workers);
    fp += ", \"serve_threads_per_worker\": " +
          std::to_string(std::max(1u, ctx.threads / ctx.workers)) + "}";
    return fp;
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    std::uint64_t seed = 0, trace = 2, threads = 4, workers = 2;
    std::string seconds;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload") {
            ctx.workload = value;
        } else if (arg == "--seed") {
            haveSeed = parseUint(value, seed);
            if (!haveSeed)
                return usage("--seed takes a whole number");
        } else if (arg == "--seconds") {
            seconds = value;
        } else if (arg == "--trace") {
            if (!parseUint(value, trace) || trace > 1)
                return usage("--trace takes 0 or 1");
        } else if (arg == "--threads") {
            if (!parseUint(value, threads) || threads == 0)
                return usage("--threads takes a positive number");
        } else if (arg == "--workers") {
            if (!parseUint(value, workers) || workers == 0)
                return usage("--workers takes a positive number");
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (ctx.workload != "sweep_cold" && ctx.workload != "sweep_warm" &&
        ctx.workload != "serve_mixed")
        return usage("--workload must be sweep_cold, sweep_warm or "
                     "serve_mixed");
    char *end = nullptr;
    ctx.seconds = std::strtod(seconds.c_str(), &end);
    if (seconds.empty() || *end != '\0' || !(ctx.seconds > 0.0))
        return usage("--seconds takes a positive number");
    if (!haveSeed || trace > 1)
        return usage("--seed and --trace are required");
    ctx.seed = seed;
    ctx.trace = trace == 1;

    // The thread budget never exceeds the host: sweeps run `threads`
    // pool threads, serve runs `workers` processes of threads/workers.
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    ctx.threads = static_cast<unsigned>(std::min<std::uint64_t>(threads, nproc));
    ctx.workers = static_cast<unsigned>(std::min<std::uint64_t>(workers, ctx.threads));

    const std::filesystem::path exe =
        std::filesystem::read_symlink("/proc/self/exe");
    ctx.cliPath = (exe.parent_path() / "critics_cli").string();
    ctx.workDir = (exe.parent_path() /
                   ("work-" + std::to_string(::getpid())))
                      .string();
    std::filesystem::remove_all(ctx.workDir);
    std::filesystem::create_directories(ctx.workDir);

    const std::string env = pinEnvironment(ctx);
    // A daemon that dies mid-write must fail the run, not kill it.
    std::signal(SIGPIPE, SIG_IGN);

    Report report;
    try {
        if (ctx.trace)
            report = runTraced(ctx);
        else if (ctx.workload == "sweep_cold")
            report = runSweepCold(ctx);
        else if (ctx.workload == "sweep_warm")
            report = runSweepWarm(ctx);
        else
            report = runServeMixed(ctx);
    } catch (const std::exception &e) {
        report.fail(std::string("exception: ") + e.what());
    }
    std::error_code ec;
    std::filesystem::remove_all(ctx.workDir, ec);

    std::cout << "# critbench " << ctx.workload << " seed " << ctx.seed
              << " seconds " << ctx.seconds << " trace " << trace << "\n"
              << "# fingerprint " << fingerprint(ctx, nproc) << "\n"
              << "# environment " << env << "\n"
              << report.render(ctx.trace ? perLayerMetrics()
                                         : endToEndMetrics());
    std::cout.flush();
    return 0;
}
