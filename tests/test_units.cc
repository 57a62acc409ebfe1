/** @file Unit tests for time/byte unit helpers. */

#include <optional>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "util/field.hh"
#include "util/logging.hh"
#include "util/units.hh"

namespace ccsim {
namespace {

using namespace time_literals;

TEST(Units, LiteralScale)
{
    EXPECT_EQ(NS, 1000);
    EXPECT_EQ(US, 1000 * NS);
    EXPECT_EQ(MS, 1000 * US);
    EXPECT_EQ(SEC, 1000 * MS);
}

TEST(Units, MicrosecondsRoundTrip)
{
    EXPECT_EQ(microseconds(1.0), US);
    EXPECT_EQ(microseconds(2.5), 2 * US + 500 * NS);
    EXPECT_DOUBLE_EQ(toMicros(microseconds(123.25)), 123.25);
}

TEST(Units, NanosecondsRounding)
{
    EXPECT_EQ(nanoseconds(0.4999), 500); // 0.4999 ns = 499.9 ps -> 500
    EXPECT_EQ(nanoseconds(1.0), NS);
    EXPECT_EQ(nanoseconds(0.0), 0);
}

TEST(Units, MillisecondConversions)
{
    EXPECT_EQ(milliseconds(3.0), 3 * MS);
    EXPECT_DOUBLE_EQ(toMillis(5 * MS), 5.0);
    EXPECT_DOUBLE_EQ(toSeconds(SEC), 1.0);
}

TEST(Units, TransferTimeBasic)
{
    // 1 MB at 1 MB/s is one second.
    EXPECT_EQ(transferTime(1000000, 1.0), SEC);
    // 40 MB/s (SP2 link): 64 KB takes 65536/40e6 s = 1638.4 us.
    EXPECT_EQ(transferTime(64 * KiB, 40.0), microseconds(1638.4));
}

TEST(Units, TransferTimeZeroBytes)
{
    EXPECT_EQ(transferTime(0, 300.0), 0);
}

TEST(Units, TransferTimeInvalid)
{
    throwOnError(true);
    EXPECT_THROW(transferTime(-1, 10.0), PanicError);
    EXPECT_THROW(transferTime(10, 0.0), PanicError);
    EXPECT_THROW(transferTime(10, -3.0), PanicError);
    throwOnError(false);
}

TEST(Units, BandwidthMBs)
{
    EXPECT_DOUBLE_EQ(bandwidthMBs(1000000, SEC), 1.0);
    EXPECT_DOUBLE_EQ(bandwidthMBs(300, microseconds(1.0)), 300.0);
    EXPECT_DOUBLE_EQ(bandwidthMBs(100, 0), 0.0);
}

TEST(Units, TransferBandwidthInverse)
{
    for (double bw : {40.0, 175.0, 300.0}) {
        for (Bytes b : {Bytes(4), Bytes(1024), Bytes(64 * KiB)}) {
            Time t = transferTime(b, bw);
            EXPECT_NEAR(bandwidthMBs(b, t), bw, bw * 1e-3)
                << "bw=" << bw << " b=" << b;
        }
    }
}

TEST(Units, FormatTime)
{
    EXPECT_EQ(formatTime(500), "500 ps");
    EXPECT_EQ(formatTime(1500), "1.50 ns");
    EXPECT_EQ(formatTime(3 * US), "3.00 us");
    EXPECT_EQ(formatTime(317 * MS), "317.00 ms");
    EXPECT_EQ(formatTime(2 * SEC), "2.000 s");
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(4), "4 B");
    EXPECT_EQ(formatBytes(1023), "1023 B");
    EXPECT_EQ(formatBytes(KiB), "1 KB");
    EXPECT_EQ(formatBytes(64 * KiB), "64 KB");
    EXPECT_EQ(formatBytes(1536), "1.5 KB");
    EXPECT_EQ(formatBytes(MiB), "1 MB");
}

/** std::stoll over the whole text: what parseWhole(long long) read
 *  before it moved to std::from_chars. */
std::optional<long long>
stollWhole(const std::string &text)
{
    try {
        std::size_t pos = 0;
        const long long v = std::stoll(text, &pos);
        if (pos == text.size())
            return v;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

TEST(ParseWhole, IntegersReadAsStollReadThem)
{
    const struct
    {
        const char *text;
        std::optional<long long> want;
    } rows[] = {
        {" 5", 5},
        {"+5", 5},
        {"-0", 0},
        {"5 ", std::nullopt},
        {"", std::nullopt},
        {"+", std::nullopt},
        {"0x10", std::nullopt},
        {"9223372036854775807", 9223372036854775807LL},
        {"9223372036854775808", std::nullopt},
        {"-9223372036854775808", -9223372036854775807LL - 1},
        {"\t\r\v\f\n+007", 7},
        {" ", std::nullopt},
        {"+-5", std::nullopt},
        {"-+5", std::nullopt},
        {"+ 5", std::nullopt},
        {"--5", std::nullopt},
        {"1e3", std::nullopt},
        {"12,", std::nullopt},
    };
    for (const auto &row : rows) {
        long long got = 42;
        const bool ok = parseWhole(row.text, got);
        EXPECT_EQ(ok, row.want.has_value()) << '"' << row.text << '"';
        EXPECT_EQ(got, row.want.value_or(42)) << '"' << row.text << '"';
        EXPECT_EQ(stollWhole(row.text), row.want) << '"' << row.text << '"';
    }
}

} // namespace
} // namespace ccsim
