#include "flint/util/csv.h"

namespace flint::util {

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) *out_ << ',';
    *out_ << escape(cells[i]);
  }
  *out_ << '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  bool needs_quote = cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

CsvFile::CsvFile(const std::string& path) : file_(path), writer_(file_) {}

}  // namespace flint::util
