#include "metrics.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>


namespace critbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> table = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"jobs_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
    };
    return table;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> table = {
        {"workload.synthesize.busy_s", "s"},
        {"program.walkProgram.busy_s", "s"},
        {"program.emitTrace.busy_s", "s"},
        {"program.emitTrace.reemit_busy_s", "s"},
        {"program.emitTrace.insts_per_s", "1/s"},
        {"sim.AppExperiment.build_s", "s"},
        {"analysis.computeFanout.busy_s", "s"},
        {"analysis.extractChains.busy_s", "s"},
        {"analysis.LocTable.busy_s", "s"},
        {"analysis.mineCritIcs.busy_s", "s"},
        {"analysis.selectCritIcs.busy_s", "s"},
        {"analysis.buildCriticalSet.busy_s", "s"},
        {"analysis.critics_mined", "count"},
        {"analysis.selection_coverage", "ratio"},
        {"compiler.applyCritIcPass.busy_s", "s"},
        {"compiler.applyOpp16Pass.busy_s", "s"},
        {"compiler.applyCompressPass.busy_s", "s"},
        {"compiler.chains_transformed_ratio", "ratio"},
        {"verify.structural_checks", "count"},
        {"verify.errors", "count"},
        {"cpu.runTrace.busy_s", "s"},
        {"cpu.runTrace.busy_s.mobile", "s"},
        {"cpu.runTrace.busy_s.spec", "s"},
        {"cpu.runTrace.sim_insts_per_s", "1/s"},
        {"cpu.runTrace.host_ns_per_sim_cycle", "ns"},
        {"cpu.sim_cycles", "count"},
        {"cpu.sim_ipc", "ratio"},
        {"energy.computeEnergy.busy_s", "s"},
        {"sim.transform_memo_hit_ratio", "ratio"},
        {"sweep_cold.traced_unaccounted_share", "ratio"},
        {"runner.store.load_s", "s"},
        {"runner.store.lookup.busy_s", "s"},
        {"runner.store.insert.busy_s", "s"},
        {"runner.JobSpec.hashHex.busy_s", "s"},
        {"runner.store.hit_ratio", "ratio"},
        {"runner.store.records", "count"},
        {"runner.store.bytes", "B"},
        {"runner.job_wall.p50_ms", "ms"},
        {"runner.job_wall.p90_ms", "ms"},
        {"runner.pool.busy_share", "ratio"},
        {"runner.jobs.retried", "count"},
        {"runner.jobs.failed", "count"},
        {"serve.submit_ack_ms", "ms"},
        {"serve.first_cold_event_ms", "ms"},
        {"serve.batch_tail_ms", "ms"},
        {"serve.queueWait.p50_ms", "ms"},
        {"serve.jobLatency.p50_ms", "ms"},
        {"serve.jobLatency.p90_ms", "ms"},
        {"serve.warmHitRatio", "ratio"},
        {"serve.workerRestarts", "count"},
        {"trace_overhead_share.sweep_cold", "ratio"},
        {"trace_overhead_share.sweep_warm", "ratio"},
        {"trace_overhead_share.serve_mixed", "ratio"},
    };
    return table;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '/' || c == '%' || c == '.' || c == '-';
    });
}

std::size_t
samplesNeeded(double q, std::size_t beyond)
{
    return static_cast<std::size_t>(
        std::ceil(static_cast<double>(beyond) / (1.0 - q) - 1e-9));
}

std::optional<double>
quantile(std::vector<double> samples, double q)
{
    if (samples.empty() || samples.size() < samplesNeeded(q))
        return std::nullopt;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(samples.begin(), samples.begin() + index,
                     samples.end());
    return samples[index];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double>
windowRates(const std::vector<double> &opMs, double jobsPerOp,
            std::size_t window)
{
    window = std::max<std::size_t>(1, std::min(window, opMs.size()));
    std::vector<double> rates;
    for (std::size_t i = 0; i + window <= opMs.size(); i += window) {
        double ms = 0.0;
        for (std::size_t j = i; j < i + window; ++j)
            ms += opMs[j];
        rates.push_back(jobsPerOp * static_cast<double>(window) * 1e3 / ms);
    }
    return rates;
}

double
medianRate(const std::vector<double> &opMs, double jobsPerOp,
           std::size_t window)
{
    return median(windowRates(opMs, jobsPerOp, window));
}

std::string
describeRates(std::vector<double> rates)
{
    std::sort(rates.begin(), rates.end());
    auto at = [&](double q) {
        return rates.empty()
                   ? 0.0
                   : rates[static_cast<std::size_t>(
                         q * static_cast<double>(rates.size() - 1))];
    };
    char text[160];
    std::snprintf(text, sizeof text,
                  "%zu windows, quartiles %.6g / %.6g / %.6g",
                  rates.size(), at(0.25), median(rates), at(0.75));
    return text;
}

std::string
joinedSeconds(const std::vector<double> &seconds)
{
    std::string text;
    for (const double s : seconds)
        text += " " + std::to_string(s);
    return text;
}

double
peakRssSelfMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Report::metric(const std::string &name, double value)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not a finite number");
        value = -1.0;
    }
    metrics_.emplace_back(name, value);
}

void
Report::operation(bool ok)
{
    attempted_++;
    if (!ok)
        failed_++;
}

void
Report::fail(const std::string &why)
{
    correct_ = false;
    notes_.push_back("CHECK FAILED: " + why);
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

std::string
Report::render(const std::vector<MetricSpec> &expected) const
{
    std::string text;
    for (const auto &line : notes_)
        text += "# " + line + "\n";

    // Plain numbers with every digit: the support JSON writer renders
    // doubles as hex-float strings (the store's bit-exact format).
    std::string body;
    std::string missing;
    for (const MetricSpec &spec : expected) {
        const auto it = std::find_if(
            metrics_.begin(), metrics_.end(),
            [&](const auto &m) { return m.first == spec.name; });
        if (it == metrics_.end()) {
            missing += std::string(" ") + spec.name;
            continue;
        }
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", it->second);
        body += body.empty() ? "" : ", ";
        body += "\"" + std::string(spec.name) + "\": {\"value\": " +
                value + ", \"unit\": \"" + spec.unit + "\"}";
    }
    if (!missing.empty())
        text += "# CHECK FAILED: metrics not measured:" + missing + "\n";

    const bool correct =
        correct_ && missing.empty() && attempted_ > 0 && failed_ == 0;
    return text + "{\"correct\": " + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) +
           ", \"metrics\": {" + body + "}}\n";
}

} // namespace critbench
