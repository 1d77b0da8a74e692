/**
 * @file
 * Lightweight statistics package: resettable event counters (so a
 * warm-up phase can be excluded from measurement, as the paper does)
 * and the mean/variance/95% CI accumulator that replication uses.
 */

#ifndef SIQ_COMMON_STATS_HH
#define SIQ_COMMON_STATS_HH

#include <cstdint>

namespace siq::stats
{

/**
 * Two-sided 95% critical value for a mean estimated from @p n
 * samples: the Student-t quantile t(0.975, n-1) for n <= 30 (exact
 * small-sample coverage), the normal approximation 1.96 beyond, and
 * 0 below two samples (spread is undefined).
 */
double tCritical95(std::uint64_t n);

/** A monotonically increasing event counter. */
class Scalar
{
  public:
    void operator+=(std::uint64_t n) { _value += n; }
    void operator++() { _value += 1; }
    void operator++(int) { _value += 1; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Single-pass mean/variance accumulator (Welford's algorithm): the
 * aggregation primitive for batch-of-seeds replication. Numerically
 * stable at any sample count and stores no samples, so the sweep
 * engine can fold replicas in a fixed order and stay bit-reproducible.
 */
class RunningStats
{
  public:
    void sample(double v);

    std::uint64_t count() const { return n; }
    double mean() const { return _mean; }
    /** Unbiased sample variance (n-1 denominator); 0 below 2 samples. */
    double variance() const;
    /** Sample standard deviation; 0 below 2 samples. */
    double stddev() const;
    /**
     * Half-width of the 95% confidence interval on the mean:
     * tCritical95(n) * stddev / sqrt(n) — Student-t critical values
     * for n <= 30, 1.96 beyond; 0 below 2 samples.
     */
    double ci95() const;
    void reset();

  private:
    std::uint64_t n = 0;
    double _mean = 0.0;
    double m2 = 0.0; ///< running sum of squared deviations
};

} // namespace siq::stats

#endif // SIQ_COMMON_STATS_HH
