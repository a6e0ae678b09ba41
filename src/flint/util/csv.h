// Minimal CSV emission for experiment artifacts (figures are emitted as CSV
// series alongside the ASCII rendering so they can be re-plotted).
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace flint::util {

/// Streaming CSV writer with RFC-4180 quoting. Writes to any ostream the
/// caller owns; `CsvFile` below bundles an owned std::ofstream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void write_row(const std::vector<std::string>& cells);

  /// Quote a cell if it contains a comma, quote, or newline.
  static std::string escape(const std::string& cell);

 private:
  std::ostream* out_;
};

/// CSV file on disk; directory must already exist.
class CsvFile {
 public:
  explicit CsvFile(const std::string& path);

  bool ok() const { return static_cast<bool>(file_); }
  void write_row(const std::vector<std::string>& cells) { writer_.write_row(cells); }

 private:
  std::ofstream file_;
  CsvWriter writer_;
};

}  // namespace flint::util
