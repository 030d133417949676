/**
 * @file
 * Small statistics containers: the sparse integer histograms behind the
 * chain-geometry figures, the log-bucketed latency histograms behind
 * the runner's and the daemon's percentile stats, and the CDF point
 * the miner's coverage curves are made of.
 */

#ifndef CRITICS_SUPPORT_HISTOGRAM_HH
#define CRITICS_SUPPORT_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>

namespace critics
{

/**
 * Sparse integer histogram with weighted samples.  Used for fanout
 * distributions, chain-gap counts (Fig. 1b), IC length/spread (Fig. 5a).
 */
class Histogram
{
  public:
    void add(std::int64_t bucket, double weight = 1.0);
    void merge(const Histogram &other);

    double at(std::int64_t bucket) const;
    /** Fraction of total weight in this exact bucket (0 if empty). */
    double fraction(std::int64_t bucket) const;
    std::int64_t maxBucket() const;
    /** Smallest bucket b whose cumulative weight fraction is >= q. */
    std::int64_t percentile(double q) const;

  private:
    std::map<std::int64_t, double> buckets_;
    double total_ = 0.0;
};

/**
 * Log-bucketed latency distribution with percentile views (an
 * HdrHistogram-lite).  Buckets cover microsecond latencies with 8
 * linear sub-buckets per power-of-two octave, so relative bucket
 * error is bounded at 12.5% across the whole range — wide enough for
 * a 40µs cache hit and a 40s cold job in the same histogram.
 *
 * Bucket scheme (values in µs):
 *   - bucket 0 holds everything below 1µs;
 *   - bucket 1 + 8·octave + sub holds [2^octave·(1 + sub/8),
 *     2^octave·(1 + (sub+1)/8)) for sub in 0..7, octave in 0..47.
 * Boundaries are computed with frexp/ldexp, never log(), so a value
 * exactly on a power of two lands in its own bucket deterministically
 * (tests assert exact boundary behaviour).
 *
 * percentile(q) returns the *upper bound* of the smallest bucket
 * whose cumulative count reaches q — a conservative (never
 * under-reporting) estimate.  add() is mutex-synchronized: pool
 * threads record job wall times concurrently.
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kSubBuckets = 8;
    static constexpr std::size_t kOctaves = 48;
    static constexpr std::size_t kBuckets = 1 + kOctaves * kSubBuckets;

    /** Record one latency (microseconds; negatives clamp to 0). */
    void add(double micros);

    std::uint64_t count() const;
    double mean() const;
    double max() const; ///< exact largest recorded value (0 if empty)
    /** Upper bound of the bucket where cumulative count reaches q
     *  (q clamped to [0,1]); 0 when empty. */
    double percentile(double q) const;

    /** Bucket index a value lands in (pure; exposed for tests). */
    static std::size_t bucketOf(double micros);
    /** Inclusive lower / exclusive upper bound of a bucket in µs. */
    static double bucketLowerBound(std::size_t bucket);
    static double bucketUpperBound(std::size_t bucket);

  private:
    mutable std::mutex mutex_;
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double max_ = 0.0;
};

/** One (x, cumulative fraction) step of an empirical CDF. */
struct CdfPoint
{
    double x;
    double fraction;
};

} // namespace critics

#endif // CRITICS_SUPPORT_HISTOGRAM_HH
