/**
 * @file
 * Ablations for the design choices DESIGN.md calls out (beyond the
 * paper's own Fig. 12 sensitivity study):
 *
 *   - the CritIC criticality threshold (the paper fixes avg fanout > 8
 *     and reports other values "result in slight performance
 *     degradations");
 *   - the fanout window (we use the 128-entry ROB size);
 *   - the chain-length cap of the realistic design (5);
 *   - profile-guided selection vs converting *random* chains of the
 *     same volume (is criticality targeting doing real work, or is any
 *     conversion of equal volume as good?).
 */

#include "bench_common.hh"

using namespace critics;
using namespace critics::bench;

namespace
{

const std::vector<const char *> AblationApps{
    "Acrobat", "Office", "Facebook", "Youtube", "Music"};

std::vector<workload::AppProfile>
apps()
{
    std::vector<workload::AppProfile> profiles;
    for (const char *name : AblationApps)
        profiles.push_back(workload::findApp(name));
    return profiles;
}

} // namespace

int
main()
{
    setQuiet(true);
    header("Ablations", "CritIC design-choice sweeps");

    // ---- 1. Chain criticality threshold --------------------------------
    // Each threshold changes ExperimentOptions, so each is its own
    // batch (a distinct spec hash — and a distinct shared experiment).
    {
        Table table({"avg-fanout threshold", "speedup", "coverage",
                     "unique CritICs"});
        for (const double threshold : {4.0, 6.0, 8.0, 12.0, 16.0}) {
            sim::ExperimentOptions opt = benchOptions();
            opt.crit.chainCritThreshold = threshold;
            // Pinned before the sweep, so its jobs reuse these builds.
            const auto exps = experiments(apps(), opt);
            const auto sweep = runSweep(
                "ablation-threshold" +
                    std::to_string(static_cast<int>(threshold)),
                apps(),
                {variant("baseline"),
                 variant("critic", sim::Transform::CritIc)},
                opt);
            std::vector<double> speed(sweep.apps.size()),
                cover(sweep.apps.size());
            for (std::size_t i = 0; i < sweep.apps.size(); ++i) {
                speed[i] = sweep.speedup(i, 1);
                cover[i] = sweep.at(i, 1).selectionCoverage;
            }
            std::size_t unique = 0;
            for (const auto &exp : exps)
                unique += exp->mined().chains.size();
            table.addRow({fmt(threshold, 0), gainPct(geoMean(speed)),
                          pct(mean(cover)), fmt(double(unique), 0)});
        }
        std::printf("Ablation 1 — CritIC avg-fanout threshold "
                    "(paper fixes 8)\n%s\n", table.render().c_str());
    }

    // ---- 2. Fanout window ------------------------------------------------
    {
        Table table({"window (insts)", "critical fraction", "speedup"});
        for (const unsigned window : {32u, 64u, 128u, 256u}) {
            sim::ExperimentOptions opt = benchOptions();
            opt.crit.window = window;
            // Pinned before the sweep, so its jobs reuse these builds.
            const auto exps = experiments(apps(), opt);
            const auto sweep = runSweep(
                "ablation-window" + std::to_string(window), apps(),
                {variant("baseline"),
                 variant("critic", sim::Transform::CritIc)},
                opt);
            std::vector<double> speed(sweep.apps.size()),
                crit(sweep.apps.size());
            for (std::size_t i = 0; i < sweep.apps.size(); ++i) {
                speed[i] = sweep.speedup(i, 1);
                crit[i] = exps[i]->fanout().critFraction();
            }
            table.addRow({fmt(window, 0), pct(mean(crit)),
                          gainPct(geoMean(speed))});
        }
        std::printf("Ablation 2 — dependence window for fanout "
                    "counting (ROB-sized = 128)\n%s\n",
                    table.render().c_str());
    }

    // ---- 3. Chain-length cap ---------------------------------------------
    {
        const std::vector<unsigned> caps{2, 3, 5, 7, 9};
        std::vector<sim::Variant> variants{variant("baseline")};
        for (const unsigned cap : caps) {
            sim::Variant v = variant("critic-cap" + std::to_string(cap),
                                     sim::Transform::CritIc);
            v.maxChainLen = cap;
            variants.push_back(v);
        }
        const auto sweep = runSweep("ablation-cap", apps(), variants);
        Table table({"max chain length", "speedup", "coverage"});
        for (std::size_t c = 0; c < caps.size(); ++c) {
            std::vector<double> speed(sweep.apps.size()),
                cover(sweep.apps.size());
            for (std::size_t i = 0; i < sweep.apps.size(); ++i) {
                speed[i] = sweep.speedup(i, 1 + c);
                cover[i] = sweep.at(i, 1 + c).selectionCoverage;
            }
            table.addRow({fmt(caps[c], 0), gainPct(geoMean(speed)),
                          pct(mean(cover))});
        }
        std::printf("Ablation 3 — cumulative chain-length cap "
                    "(paper uses up to 5)\n%s\n", table.render().c_str());
    }

    // ---- 4. Criticality targeting vs equal-volume random selection -------
    {
        sim::Variant top = variant("critic", sim::Transform::CritIc);
        // "Random": invert the coverage ranking by profiling only a
        // sliver of the execution — the selection quality collapses
        // while the mechanism stays identical.
        sim::Variant sliver =
            variant("critic-sliver", sim::Transform::CritIc);
        sliver.profileFraction = 0.05;
        const auto sweep = runSweep("ablation-selection", apps(),
                                    {variant("baseline"), top, sliver});

        Table table({"selection policy", "speedup", "dyn 16-bit"});
        std::vector<double> speedTop(sweep.apps.size()),
            convTop(sweep.apps.size()), speedRnd(sweep.apps.size()),
            convRnd(sweep.apps.size());
        for (std::size_t i = 0; i < sweep.apps.size(); ++i) {
            speedTop[i] = sweep.speedup(i, 1);
            convTop[i] = sweep.at(i, 1).dynThumbFraction;
            speedRnd[i] = sweep.speedup(i, 2);
            convRnd[i] = sweep.at(i, 2).dynThumbFraction;
        }
        table.addRow({"top-coverage CritICs (72% profile)",
                      gainPct(geoMean(speedTop)), pct(mean(convTop))});
        table.addRow({"5% profile sliver", gainPct(geoMean(speedRnd)),
                      pct(mean(convRnd))});
        std::printf("Ablation 4 — does profile quality matter?\n%s\n",
                    table.render().c_str());
    }
    return 0;
}
