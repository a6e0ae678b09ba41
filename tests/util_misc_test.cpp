#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "flint/util/check.h"
#include "flint/util/crc32.h"
#include "flint/util/csv.h"
#include "flint/util/histogram.h"
#include "flint/util/logging.h"
#include "flint/util/table.h"
#include "csv_reader.h"

namespace flint::util {
namespace {

// ---------------------------------------------------------------- Histogram

TEST(Histogram, BinsAndEdgeClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(9.9);
  h.add(-100.0);  // clamps into the first bin
  h.add(100.0);   // clamps into the last bin
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, WeightedAdds) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 3.0);
  h.add(0.75, 1.0);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
  auto peak = h.normalized_to_peak();
  EXPECT_DOUBLE_EQ(peak[0], 1.0);
  EXPECT_DOUBLE_EQ(peak[1], 1.0 / 3.0);
}

TEST(Histogram, BinBoundaries) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 3), CheckError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), CheckError);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.2);
  std::string s = h.render(10);
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(LogCcdf, MonotoneNonIncreasing) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(static_cast<double>(i));
  auto ccdf = log_ccdf(values, 10);
  ASSERT_EQ(ccdf.size(), 10u);
  for (std::size_t i = 1; i < ccdf.size(); ++i) {
    EXPECT_LE(ccdf[i].fraction, ccdf[i - 1].fraction);
    EXPECT_GT(ccdf[i].value, ccdf[i - 1].value);
  }
  EXPECT_DOUBLE_EQ(ccdf.back().fraction, 0.0);  // nothing exceeds the max
}

// -------------------------------------------------------------------- Table

TEST(Table, RendersAlignedCells) {
  Table t({"NAME", "VALUE"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::string s = t.render();
  EXPECT_NE(s.find("NAME"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsWrongArity) {
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(5.0), "5");
  EXPECT_EQ(Table::num(4.98, 2), "4.98");
  EXPECT_EQ(Table::count(1024950), "1,024,950");
  EXPECT_EQ(Table::count(-1234), "-1,234");
  EXPECT_EQ(Table::pct(0.221), "22.1%");
}

TEST(Banner, ContainsTitle) {
  EXPECT_NE(banner("Table 3").find("Table 3"), std::string::npos);
}

// ---------------------------------------------------------------------- CSV

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RoundTripsThroughParse) {
  std::ostringstream out;
  CsvWriter w(out);
  std::vector<std::string> row = {"x", "a,b", "with \"quotes\"", ""};
  w.write_row(row);
  std::string line = out.str();
  line.pop_back();  // strip trailing newline
  EXPECT_EQ(test::parse_csv_line(line), row);
}

TEST(Csv, ParsesCrlf) {
  auto cells = test::parse_csv_line("a,b\r");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1], "b");
}

// -------------------------------------------------------------------- Check

TEST(Check, ThrowsWithContext) {
  try {
    FLINT_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(FLINT_CHECK(2 + 2 == 4));
}

// ------------------------------------------------------------------ Logging

TEST(Logging, LevelGate) {
  Logger::instance().set_level(LogLevel::kError);
  EXPECT_EQ(Logger::instance().level(), LogLevel::kError);
  // Below-threshold logging must not crash (output suppressed).
  FLINT_LOG_INFO << "hidden";
  Logger::instance().set_level(LogLevel::kWarn);
}

TEST(Logging, EnabledCheckMatchesLevel) {
  Logger::instance().set_level(LogLevel::kWarn);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kDebug));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kWarn));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kError));
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kOff));
}

TEST(Logging, SinkCapturesTimestampedTaggedLine) {
  std::ostringstream captured;
  std::streambuf* stderr_buf = std::cerr.rdbuf(captured.rdbuf());
  Logger::instance().set_level(LogLevel::kInfo);
  FLINT_LOG_INFO << "payload " << 42;
  FLINT_LOG_DEBUG << "filtered out";
  std::cerr.rdbuf(stderr_buf);
  Logger::instance().set_level(LogLevel::kWarn);

  const std::string line = captured.str();
  EXPECT_NE(line.find("[INFO] payload 42"), std::string::npos) << line;
  EXPECT_EQ(line.find("filtered"), std::string::npos);
  // Wall-clock stamp: "[YYYY-MM-DDTHH:MM:SS.mmm]" prefix.
  ASSERT_GE(line.size(), 25u);
  EXPECT_EQ(line[0], '[');
  EXPECT_EQ(line[5], '-');
  EXPECT_EQ(line[11], 'T');
  EXPECT_EQ(line[20], '.');
  EXPECT_EQ(line[24], ']');
}

TEST(Logging, MacroBindsInUnbracedIf) {
  std::ostringstream captured;
  std::streambuf* stderr_buf = std::cerr.rdbuf(captured.rdbuf());
  Logger::instance().set_level(LogLevel::kInfo);
  // The dangling-else shape must keep this statement well-formed: the log
  // belongs to the inner if, the else to the outer one.
  bool flag = false;
  if (flag)
    FLINT_LOG_INFO << "not reached";
  else
    FLINT_LOG_INFO << "else branch";
  std::cerr.rdbuf(stderr_buf);
  Logger::instance().set_level(LogLevel::kWarn);
  EXPECT_NE(captured.str().find("else branch"), std::string::npos);
  EXPECT_EQ(captured.str().find("not reached"), std::string::npos);
}

// -------------------------------------------------------------------- CRC-32

/// The textbook bitwise CRC-32 (reflected 0xEDB88320), one bit at a time:
/// the reference the table-driven util::crc32 must match exactly.
std::uint32_t reference_crc32(const unsigned char* bytes, std::size_t size, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pseudo_random_bytes(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = pseudo_random_bytes(257 + 8);
  for (std::uint32_t seed : {0u, 0xCBF43926u, 0xFFFFFFFFu}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t n = 0; n <= 257; ++n) {
        const unsigned char* p = bytes.data() + offset;
        ASSERT_EQ(crc32(p, n, seed), reference_crc32(p, n, seed))
            << "length " << n << ", offset " << offset << ", seed " << seed;
      }
    }
  }
}

TEST(Crc32, ChainsAcrossEverySplit) {
  const std::vector<unsigned char> bytes = pseudo_random_bytes(1024);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, reference_crc32(bytes.data(), bytes.size(), 0));
  for (std::size_t k = 0; k <= bytes.size(); ++k)
    ASSERT_EQ(crc32(bytes.data() + k, bytes.size() - k, crc32(bytes.data(), k)), whole)
        << "split at " << k;
}

}  // namespace
}  // namespace flint::util
