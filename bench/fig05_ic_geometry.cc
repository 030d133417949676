/**
 * @file
 * Fig. 5 reproduction.
 *
 * (a) IC length and dynamic-stream spread, SPEC vs Android.  Paper:
 *     SPEC ICs reach ~1.3K instructions spread over ~6.3K, while
 *     Android ICs stay <= ~20 long and <= ~540 spread — which is what
 *     makes a software/compiler approach viable for mobile apps.
 * (b) CDF of dynamic-stream coverage by unique CritICs, plus the
 *     subset representable in the 16-bit format without change
 *     (paper: 95.5% of unique sequences).
 */

#include "bench_common.hh"
#include "support/histogram.hh"

using namespace critics;
using namespace critics::bench;

int
main()
{
    setQuiet(true);
    header("Fig. 5", "IC geometry and unique-CritIC coverage");

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

    Table fig5a({"suite", "IC len p50", "IC len p99", "IC len max",
                 "spread p50", "spread p99", "spread max"});

    std::vector<analysis::CoverageCdf> androidCdfs;
    double convertibleFrac = 0.0;
    std::size_t uniqueChains = 0;

    // This figure is pure offline analysis (no design-point runs), so
    // it drives the shared experiments directly; the profiling work is
    // parallelized over the runner's pool.
    for (auto &suite : suites) {
        auto exps = experiments(suite.apps);
        runner::ThreadPool::shared().forEach(exps.size(), [&](std::size_t i) {
            (void)exps[i]->chainStats();
            (void)exps[i]->mined();
        });

        Histogram len, spread;
        for (auto &expPtr : exps) {
            len.merge(expPtr->chainStats().icLength);
            spread.merge(expPtr->chainStats().icSpread);
        }
        fig5a.addRow({suite.name, fmt(len.percentile(0.5), 0),
                      fmt(len.percentile(0.99), 0),
                      fmt(static_cast<double>(len.maxBucket()), 0),
                      fmt(spread.percentile(0.5), 0),
                      fmt(spread.percentile(0.99), 0),
                      fmt(static_cast<double>(spread.maxBucket()), 0)});

        if (std::string(suite.name) == "Android") {
            for (auto &expPtr : exps) {
                const auto cdf =
                    analysis::coverageCdf(expPtr->mined());
                convertibleFrac += cdf.convertibleChainFraction;
                uniqueChains += expPtr->mined().chains.size();
                androidCdfs.push_back(cdf);
            }
            convertibleFrac /= static_cast<double>(exps.size());
        }
    }

    std::printf("Fig. 5a — IC length and dynamic spread\n%s\n",
                fig5a.render().c_str());

    // Fig. 5b: average the per-app CDFs at fixed chain-count marks.
    Table fig5b({"unique CritICs", "coverage (all)",
                 "coverage (16-bit representable)"});
    const std::vector<double> marks{1, 2, 4, 8, 16, 32, 64, 128, 256,
                                    512, 1024};
    auto sampleCdf = [](const std::vector<CdfPoint> &cdf, double x) {
        double value = 0.0;
        for (const auto &point : cdf) {
            if (point.x <= x)
                value = point.fraction;
            else
                break;
        }
        return value;
    };
    for (const double x : marks) {
        double all = 0, conv = 0;
        for (const auto &cdf : androidCdfs) {
            all += sampleCdf(cdf.all, x);
            conv += sampleCdf(cdf.convertible, x);
        }
        const auto n = static_cast<double>(androidCdfs.size());
        fig5b.addRow({fmt(x, 0), pct(all / n), pct(conv / n)});
    }
    std::printf("Fig. 5b — CDF of dynamic coverage by unique CritICs "
                "(Android, per-app average)\n%s\n",
                fig5b.render().c_str());
    std::printf("Unique CritICs across the ten apps: %zu; "
                "16-bit-representable unique sequences: %s "
                "(paper: 95.5%%)\n",
                uniqueChains, pct(convertibleFrac).c_str());
    return 0;
}
