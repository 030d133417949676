#include "sim/report.hh"

#include "stats/registry.hh"
#include "support/json.hh"

namespace critics::sim
{

void
bindRunResult(stats::StatRegistry &reg, const RunResult &result)
{
    result.cpu.registerStats(reg, "cpu");
    result.cpu.mem.registerStats(reg, "mem");
    result.energy.registerStats(reg, "energy");
    result.pass.registerStats(reg, "pass");
    reg.addValue("run.selectionCoverage", result.selectionCoverage,
                 "expected dynamic coverage of selected chains");
    reg.addValue("run.staticThumbFraction", result.staticThumbFraction,
                 "static instructions in 16-bit format");
    reg.addValue("run.dynThumbFraction", result.dynThumbFraction,
                 "dynamic instructions in 16-bit format");
}

std::string
toJson(const RunResult &result, const std::string &label)
{
    stats::StatRegistry reg;
    bindRunResult(reg, result);
    json::JsonWriter w;
    w.beginObject();
    w.field("label", label);
    reg.writeJson(w);
    w.endObject();
    return w.str();
}

} // namespace critics::sim
