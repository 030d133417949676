/**
 * @file
 * Fig. 3 reproduction.
 *
 * (a) Fetch-to-commit stage breakdown of the high-fanout (critical)
 *     instructions, SPEC vs Android.  Paper: Android criticals spend
 *     ~40% of their time in Fetch while SPEC criticals spend <5%,
 *     with SPEC dominated by Execute/ROB residency.
 * (b) The split of front-end stalls into F.StallForI (i-cache +
 *     branch redirect supply) and F.StallForR+D (back-pressure), as
 *     fractions of whole-program cycles.
 * (c) The long-latency instruction mix: mobile apps have far fewer
 *     high-latency (divide/FP/missing-load) instructions.
 */

#include <cmath>
#include <fstream>

#include "bench_common.hh"
#include "stats/interval.hh"

using namespace critics;
using namespace critics::bench;

namespace
{

/**
 * Fig. 3 time-series: re-run one Android baseline with interval
 * sampling, write the cumulative per-interval rows as JSONL, and
 * check that the sampled series reproduces the reported end-of-run
 * totals — (last row − warmup row) must equal the warmup-subtracted
 * F.StallForI / F.StallForR+D the tables above were built from.
 * Returns false on any inconsistency.
 */
bool
emitIntervalSeries(const workload::AppProfile &app)
{
    auto exp = runner::sharedRunner().experiment(app, benchOptions());
    sim::RunHooks hooks;
    stats::IntervalSeries series;
    hooks.statsInterval = 25000;
    hooks.intervals = &series;
    // Direct run: hooks never enter the cache key, and a cached
    // result would carry no interval rows.
    const auto result = exp->run(variant("baseline"), hooks);

    const std::string path = "stats_fig03.jsonl";
    std::ofstream out(path, std::ios::trunc);
    out << series.toJsonl(app.name + "/baseline");
    std::printf("interval series: %s (%zu rows of %zu stats)\n",
                path.c_str(), series.size(), series.names().size());

    if (series.empty())
        return false;
    const auto &rows = series.rows();
    const auto &last = rows.back();
    auto value = [&](const stats::IntervalSeries::Row &row,
                     const char *name) { return series.at(row, name); };

    // Rows are cumulative from cycle 0; the reported totals subtract
    // the warmup snapshot.  The warmup row is the (unique) row whose
    // distance from the last row equals the reported cycle and
    // instruction counts — counts are integers below 2^53, so the
    // double comparison is exact.
    const stats::IntervalSeries::Row *warmup = nullptr;
    for (const auto &row : rows) {
        if (value(last, "cpu.cycles") - value(row, "cpu.cycles") ==
                static_cast<double>(result.cpu.cycles) &&
            value(last, "cpu.committed") -
                    value(row, "cpu.committed") ==
                static_cast<double>(result.cpu.committed)) {
            warmup = &row;
            break;
        }
    }
    if (warmup == nullptr) {
        std::printf("interval series: no row matches the warmup "
                    "boundary — series is inconsistent\n");
        return false;
    }

    auto delta = [&](const char *name) {
        return value(last, name) - value(*warmup, name);
    };
    const double cycles = delta("cpu.cycles");
    const double stallForI = (delta("cpu.fetch.stallForI.icache") +
                              delta("cpu.fetch.stallForI.redirect")) /
                             cycles;
    const double stallForRd = delta("cpu.fetch.stallForRd") / cycles;
    const bool ok =
        std::abs(stallForI - result.cpu.fracStallForI()) < 1e-9 &&
        std::abs(stallForRd - result.cpu.fracStallForRd()) < 1e-9;
    std::printf("interval vs totals (%s): F.StallForI %.4f/%.4f, "
                "F.StallForR+D %.4f/%.4f — %s\n",
                app.name.c_str(), stallForI,
                result.cpu.fracStallForI(), stallForRd,
                result.cpu.fracStallForRd(),
                ok ? "consistent" : "MISMATCH");
    return ok;
}

} // namespace

int
main()
{
    setQuiet(true);
    header("Fig. 3", "where critical instructions spend their time");

    struct SuiteRow
    {
        const char *name;
        std::vector<workload::AppProfile> apps;
    };
    std::vector<SuiteRow> suites{
        {"SPEC.int", workload::specIntApps()},
        {"SPEC.float", workload::specFloatApps()},
        {"Android", workload::mobileApps()},
    };

    Table fig3a({"suite", "Fetch", "Decode/Rename", "ROB wait",
                 "Execute", "Commit wait"});
    Table fig3b({"suite", "F.StallForI (icache)", "F.StallForI (branch)",
                 "F.StallForR+D", "IPC"});
    Table fig3c({"suite", "div/FP ops", "L1-missing loads",
                 "high-latency total"});

    for (auto &suite : suites) {
        // The baseline runs are the sweep (cached after the first
        // invocation); the instruction-mix scan needs the raw traces,
        // which live on the shared experiments.  Taking them first
        // pins them, so the sweep's jobs reuse these builds.
        auto exps = experiments(suite.apps);
        const auto sweep =
            runSweep(std::string("fig03-") + suite.name, suite.apps,
                     {variant("baseline")});

        cpu::StageBreakdown crit;
        double icacheStall = 0, redirectStall = 0, rdStall = 0, ipc = 0;
        double longLatOps = 0, missLoads = 0;
        for (std::size_t i = 0; i < suite.apps.size(); ++i) {
            const auto &stats = sweep.at(i, 0).cpu;
            const auto &b = stats.crit;
            crit.fetch += b.fetch;
            crit.decode += b.decode;
            crit.issueWait += b.issueWait;
            crit.execute += b.execute;
            crit.commitWait += b.commitWait;
            crit.insts += b.insts;
            const auto cycles = static_cast<double>(stats.cycles);
            icacheStall +=
                static_cast<double>(stats.stallForIIcache) / cycles;
            redirectStall +=
                static_cast<double>(stats.stallForIRedirect) / cycles;
            rdStall += stats.fracStallForRd();
            ipc += stats.ipc();

            // Fig. 3c mix from the trace itself.
            std::uint64_t lat = 0, total = 0;
            for (const auto &d : exps[i]->baseTrace().insts) {
                ++total;
                switch (d.op) {
                  case isa::OpClass::IntDiv:
                  case isa::OpClass::FloatAdd:
                  case isa::OpClass::FloatMul:
                  case isa::OpClass::FloatDiv:
                    ++lat;
                    break;
                  default:
                    break;
                }
            }
            longLatOps += static_cast<double>(lat) /
                          static_cast<double>(total);
            missLoads += stats.mem.dcache.missRate() *
                         (static_cast<double>(
                              stats.mem.dcache.accesses) /
                          static_cast<double>(stats.committed));
        }
        const auto n = static_cast<double>(suite.apps.size());
        const double total = crit.total();
        fig3a.addRow({suite.name, pct(crit.fetch / total),
                      pct(crit.decode / total),
                      pct(crit.issueWait / total),
                      pct(crit.execute / total),
                      pct(crit.commitWait / total)});
        fig3b.addRow({suite.name, pct(icacheStall / n),
                      pct(redirectStall / n), pct(rdStall / n),
                      fmt(ipc / n)});
        fig3c.addRow({suite.name, pct(longLatOps / n),
                      pct(missLoads / n),
                      pct((longLatOps + missLoads) / n)});
    }

    std::printf("Fig. 3a — stage residency of critical "
                "(fanout >= 8) instructions\n%s\n",
                fig3a.render().c_str());
    std::printf("Fig. 3b — front-end stall attribution "
                "(fraction of cycles)\n%s\n", fig3b.render().c_str());
    std::printf("Fig. 3c — long-latency instruction mix\n%s\n",
                fig3c.render().c_str());
    return emitIntervalSeries(workload::mobileApps().front()) ? 0 : 1;
}
