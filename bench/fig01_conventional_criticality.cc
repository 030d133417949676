/**
 * @file
 * Fig. 1 reproduction.
 *
 * (a) Mean speedup of the two classic single-instruction criticality
 *     optimizations — critical-load prefetching [18] and ALU
 *     prioritization [32][33] — on SPEC.int, SPEC.float and the ten
 *     Android apps, with the fraction of critical (fanout >= 8)
 *     instructions on the right axis.  Paper: prefetch 15%/34%/0.7%,
 *     prioritization 9%/25%/5%; mobile apps have MORE critical
 *     instructions yet benefit least.
 *
 * (b) Distribution of the number of low-fanout instructions between
 *     two successive high-fanout instructions in a dependence chain.
 *     Paper: Android mass at gaps 1..5 (cumulative 52%), SPEC mostly
 *     gap 0 or no dependent critical at all (60% float / 35% int).
 */

#include "bench_common.hh"
#include "support/histogram.hh"

using namespace critics;
using namespace critics::bench;

namespace
{

struct SuiteRow
{
    const char *name;
    std::vector<workload::AppProfile> apps;
};

} // namespace

int
main()
{
    setQuiet(true);
    header("Fig. 1", "conventional criticality optimizations by suite");

    std::vector<SuiteRow> suites{
        {"SPEC.int", workload::specIntApps()},
        {"SPEC.float", workload::specFloatApps()},
        {"Android", workload::mobileApps()},
    };

    sim::Variant pf = variant("prefetch");
    pf.criticalLoadPrefetch = true;
    sim::Variant prio = variant("aluprio");
    prio.aluPrio = true;

    Table fig1a({"suite", "critical-load prefetch", "ALU prioritization",
                 "% critical insts (right axis)"});
    Table fig1b({"suite", "no dependent crit", "gap 0", "gap 1", "gap 2",
                 "gap 3", "gap 4", "gap 5", "cum 1..5"});

    for (auto &suite : suites) {
        // Offline chain statistics come from the shared experiments
        // (not cacheable RunResults).  Taking them first pins them, so
        // the sweep's jobs reuse these builds.
        auto exps = experiments(suite.apps);
        const auto sweep =
            runSweep(std::string("fig01-") + suite.name, suite.apps,
                     {variant("baseline"), pf, prio});

        std::vector<double> prefetch(suite.apps.size()),
            prioSpeed(suite.apps.size());
        for (std::size_t i = 0; i < suite.apps.size(); ++i) {
            prefetch[i] = sweep.speedup(i, 1);
            prioSpeed[i] = sweep.speedup(i, 2);
        }

        std::vector<double> critFrac(exps.size()), noDep(exps.size());
        runner::ThreadPool::shared().forEach(exps.size(), [&](std::size_t i) {
            critFrac[i] = exps[i]->fanout().critFraction();
            noDep[i] = exps[i]->chainStats().noDependentCritFrac;
        });
        Histogram gaps;
        for (auto &exp : exps)
            gaps.merge(exp->chainStats().critGap);

        fig1a.addRow({suite.name, gainPct(geoMean(prefetch)),
                      gainPct(geoMean(prioSpeed)), pct(mean(critFrac))});

        double cum15 = 0.0;
        std::vector<std::string> row{suite.name, pct(mean(noDep))};
        for (int g = 0; g <= 5; ++g) {
            const double frac = gaps.fraction(g) * (1.0 - mean(noDep));
            row.push_back(pct(frac));
            if (g >= 1)
                cum15 += frac;
        }
        row.push_back(pct(cum15));
        fig1b.addRow(std::move(row));
    }

    std::printf("Fig. 1a — mean speedup of single-instruction "
                "criticality optimizations\n%s\n",
                fig1a.render().c_str());
    std::printf("Fig. 1b — low-fanout instructions between successive "
                "high-fanout chain members\n(gap fractions scaled by "
                "the share of criticals that do have a dependent "
                "critical)\n%s\n",
                fig1b.render().c_str());
    return 0;
}
