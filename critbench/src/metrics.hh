/**
 * @file
 * Shared pieces of the benchmark of record: the metric tables (names
 * and units are fixed; later changes cite them), percentile rules,
 * the memory probe and the one-line JSON report the benchmark prints
 * last.
 */

#ifndef CRITBENCH_METRICS_HH
#define CRITBENCH_METRICS_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>


namespace critbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Printed with --trace 0, on every workload. */
const std::vector<MetricSpec> &endToEndMetrics();
/** Printed with --trace 1. */
const std::vector<MetricSpec> &perLayerMetrics();

/** A letter or digit, then at most 63 letters, digits, '_', '.', '-'. */
bool validMetricName(std::string_view name);
/** At most 16 letters, digits, '_', '/', '%', '.', '-'. */
bool validUnit(std::string_view unit);

/** Samples needed so that at least `beyond` lie above quantile q. */
std::size_t samplesNeeded(double q, std::size_t beyond = 10);

/**
 * Quantile q (0 < q < 1) of `samples` by the nearest-rank rule, or
 * nullopt when fewer than samplesNeeded(q) samples were taken: a p90
 * needs at least 100 samples so that ten of them lie beyond it.
 */
std::optional<double> quantile(std::vector<double> samples, double q);

/** Median, or 0 for no samples. */
double median(std::vector<double> samples);

/**
 * Throughput of each window of `window` consecutive operations:
 * (jobs in the window) / (summed operation time), with `jobsPerOp`
 * jobs per operation and times in ms.  A trailing partial window is
 * dropped unless it is the only one.
 */
std::vector<double> windowRates(const std::vector<double> &opMs,
                                double jobsPerOp, std::size_t window);

/** Median of windowRates (0 for no samples): a burst of host noise
 *  moves one window, not the figure. */
double medianRate(const std::vector<double> &opMs, double jobsPerOp,
                  std::size_t window);

/** "n windows, quartiles q1 / median / q3" of `rates`, for a note. */
std::string describeRates(std::vector<double> rates);

/** " a b c": each of `seconds`, for a note. */
std::string joinedSeconds(const std::vector<double> &seconds);

/** Peak resident set of this process, in MB. */
double peakRssSelfMb();

/** The last line the benchmark prints, plus the notes before it. */
class Report
{
  public:
    /** Record a metric; its unit comes from the metric tables. */
    void metric(const std::string &name, double value);
    /** Count one operation, failed when `ok` is false. */
    void operation(bool ok);
    /** A failed check: the run is reported incorrect. */
    void fail(const std::string &why);
    /** A human-readable line printed before the result. */
    void note(const std::string &line);

    bool correct() const { return correct_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::pair<std::string, double>> &metrics() const
    {
        return metrics_;
    }

    /** Notes, then the result JSON with exactly the metrics of
     *  `expected` (a missing one makes the run incorrect). */
    std::string render(const std::vector<MetricSpec> &expected) const;

  private:
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::string> notes_;
};

} // namespace critbench

#endif // CRITBENCH_METRICS_HH
