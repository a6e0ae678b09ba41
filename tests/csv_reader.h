// RFC-4180 line reader: the oracle the tests parse CsvWriter output with.
#pragma once

#include <string>
#include <vector>

namespace flint::test {

/// Parse one CSV line (quoted cells, doubled quotes, a trailing CR).
inline std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur.push_back(c);
    }
  }
  cells.push_back(std::move(cur));
  return cells;
}

}  // namespace flint::test
