/**
 * @file
 * Unit tests for the telemetry metrics registry: counters, the
 * power-of-two histogram bin boundaries, and the CSV dump.
 */

#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"

using namespace ena;

namespace {

class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override { telemetry::reset(); }
    void TearDown() override { telemetry::reset(); }
};

} // anonymous namespace

TEST_F(MetricsTest, CounterAccumulates)
{
    telemetry::Counter &c = telemetry::counter("test.counter");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST_F(MetricsTest, RegistryReturnsSameInstanceByName)
{
    telemetry::Counter &a = telemetry::counter("test.same");
    telemetry::Counter &b = telemetry::counter("test.same");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST_F(MetricsTest, CounterIsThreadSafe)
{
    telemetry::Counter &c = telemetry::counter("test.mt_counter");
    std::vector<std::thread> ts;
    for (int t = 0; t < 8; ++t) {
        ts.emplace_back([&c] {
            for (int i = 0; i < 1000; ++i)
                c.add();
        });
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(c.value(), 8000u);
}

TEST_F(MetricsTest, HistogramBinBoundaries)
{
    // Bins [2^i, 2^(i+1)) for i < 32; below 1 underflow, >= 2^32
    // (and NaN) overflow.
    using H = telemetry::Histogram;
    ASSERT_EQ(H::kBins, 32);
    EXPECT_DOUBLE_EQ(H::binLo(0), 1.0);
    EXPECT_DOUBLE_EQ(H::binHi(0), 2.0);
    EXPECT_DOUBLE_EQ(H::binLo(3), 8.0);
    EXPECT_DOUBLE_EQ(H::binHi(3), 16.0);
    EXPECT_DOUBLE_EQ(H::binHi(31), 4294967296.0);

    EXPECT_EQ(H::binFor(0.5), -1);       // underflow
    EXPECT_EQ(H::binFor(0.0), -1);
    EXPECT_EQ(H::binFor(-3.0), -1);
    EXPECT_EQ(H::binFor(1.0), 0);        // lowest boundary is inclusive
    EXPECT_EQ(H::binFor(1.999), 0);
    EXPECT_EQ(H::binFor(2.0), 1);        // exact boundary -> upper bin
    EXPECT_EQ(H::binFor(4.0), 2);
    EXPECT_EQ(H::binFor(7.999), 2);
    EXPECT_EQ(H::binFor(8.0), 3);
    EXPECT_EQ(H::binFor(15.999), 3);
    EXPECT_EQ(H::binFor(1048575.0), 19);
    EXPECT_EQ(H::binFor(1048576.0), 20);
    EXPECT_EQ(H::binFor(4294967295.0), 31);
    EXPECT_EQ(H::binFor(4294967296.0), 32);   // overflow
    EXPECT_EQ(H::binFor(1e300), 32);
    EXPECT_EQ(H::binFor(std::numeric_limits<double>::infinity()), 32);
    EXPECT_EQ(H::binFor(std::nan("")), 32);
}

TEST_F(MetricsTest, HistogramSampleCountsAndExtrema)
{
    telemetry::Histogram &h = telemetry::histogram("test.hist_sample");
    EXPECT_DOUBLE_EQ(h.min(), 0.0);     // no samples yet
    EXPECT_DOUBLE_EQ(h.max(), 0.0);

    h.sample(0.25);                     // underflow
    h.sample(1.5);                      // bin 0
    h.sample(2.0);                      // bin 1
    h.sample(3.0);                      // bin 1
    h.sample(3.0);                      // bin 1
    h.sample(5e9);                      // overflow
    h.sample(std::nan(""));             // overflow, not an extremum

    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(1), 3u);
    EXPECT_EQ(h.binCount(2), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.25);
    EXPECT_DOUBLE_EQ(h.max(), 5e9);
}

TEST_F(MetricsTest, HistogramReset)
{
    telemetry::Histogram &h = telemetry::histogram("test.hist_reset");
    h.sample(3.0);
    h.sample(0.5);
    h.sample(5e9);
    telemetry::resetMetrics();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.binCount(1), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST_F(MetricsTest, CsvDumpListsEveryMetric)
{
    telemetry::counter("test.csv_counter").add(7);
    telemetry::histogram("test.csv_hist").sample(3.0);
    telemetry::histogram("test.csv_hist").sample(1500000.0);

    std::ostringstream os;
    telemetry::writeMetricsCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("name,type,value"), std::string::npos);
    EXPECT_NE(csv.find("test.csv_counter,counter,7"), std::string::npos);
    EXPECT_NE(csv.find("test.csv_hist,histogram_count,2"),
              std::string::npos);
    EXPECT_NE(csv.find("test.csv_hist,histogram_bin[2,4),1"),
              std::string::npos);
    EXPECT_NE(csv.find("test.csv_hist,histogram_bin[1.04858e+06,"
                       "2.09715e+06),1"),
              std::string::npos);
}
