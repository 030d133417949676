#include "support/histogram.hh"

#include <algorithm>
#include <cmath>

namespace critics
{

void
Histogram::add(std::int64_t bucket, double weight)
{
    buckets_[bucket] += weight;
    total_ += weight;
}

void
Histogram::merge(const Histogram &other)
{
    for (const auto &[bucket, weight] : other.buckets_)
        buckets_[bucket] += weight;
    total_ += other.total_;
}

double
Histogram::at(std::int64_t bucket) const
{
    const auto it = buckets_.find(bucket);
    return it == buckets_.end() ? 0.0 : it->second;
}

double
Histogram::fraction(std::int64_t bucket) const
{
    return total_ > 0.0 ? at(bucket) / total_ : 0.0;
}

std::int64_t
Histogram::maxBucket() const
{
    return buckets_.empty() ? 0 : buckets_.rbegin()->first;
}

std::int64_t
Histogram::percentile(double q) const
{
    if (total_ <= 0.0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    double acc = 0.0;
    for (const auto &[b, w] : buckets_) {
        acc += w;
        if (acc / total_ >= q)
            return b;
    }
    return maxBucket();
}

std::size_t
LatencyHistogram::bucketOf(double micros)
{
    if (!(micros >= 1.0)) // < 1µs, 0, negative, NaN
        return 0;
    int exp = 0;
    const double frac = std::frexp(micros, &exp); // micros = frac·2^exp
    const std::size_t octave = static_cast<std::size_t>(exp - 1);
    if (octave >= kOctaves)
        return kBuckets - 1;
    // frac in [0.5, 1): frac·2 - 1 in [0, 1) scales to the sub-bucket.
    auto sub = static_cast<std::size_t>(
        (frac * 2.0 - 1.0) * static_cast<double>(kSubBuckets));
    sub = std::min(sub, kSubBuckets - 1);
    return 1 + octave * kSubBuckets + sub;
}

double
LatencyHistogram::bucketLowerBound(std::size_t bucket)
{
    if (bucket == 0)
        return 0.0;
    const std::size_t octave = (bucket - 1) / kSubBuckets;
    const std::size_t sub = (bucket - 1) % kSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(sub) /
                                static_cast<double>(kSubBuckets),
                      static_cast<int>(octave));
}

double
LatencyHistogram::bucketUpperBound(std::size_t bucket)
{
    if (bucket + 1 >= kBuckets)
        return std::ldexp(1.0, static_cast<int>(kOctaves));
    return bucketLowerBound(bucket + 1);
}

void
LatencyHistogram::add(double micros)
{
    if (!(micros >= 0.0))
        micros = 0.0;
    std::lock_guard<std::mutex> hold(mutex_);
    ++counts_[bucketOf(micros)];
    max_ = count_ == 0 ? micros : std::max(max_, micros);
    ++count_;
    sum_ += micros;
}

std::uint64_t
LatencyHistogram::count() const
{
    std::lock_guard<std::mutex> hold(mutex_);
    return count_;
}

double
LatencyHistogram::mean() const
{
    std::lock_guard<std::mutex> hold(mutex_);
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double
LatencyHistogram::max() const
{
    std::lock_guard<std::mutex> hold(mutex_);
    return max_;
}

double
LatencyHistogram::percentile(double q) const
{
    std::lock_guard<std::mutex> hold(mutex_);
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        acc += counts_[i];
        if (counts_[i] > 0 && static_cast<double>(acc) >= target)
            return bucketUpperBound(i);
    }
    return bucketUpperBound(kBuckets - 1);
}

} // namespace critics
