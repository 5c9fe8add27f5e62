// Minimal CSV writer for study/bench exports.
//
// Every bench binary can dump the series it prints as CSV next to the
// console output so figures can be re-plotted outside the harness.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace distscroll::util {

class CsvWriter {
 public:
  /// Opens (truncates) the file and writes the header row.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  // ds-lint: allow(test-only-api) the CSV test asserts the file opened; the benches write to the cwd unchecked
  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  /// Writes one row; values.size() must equal the header width.
  void row(std::initializer_list<double> values);
  void row(const std::vector<std::string>& values);

 private:
  static std::string escape(std::string_view field);

  std::ofstream out_;
  std::size_t width_;
};

}  // namespace distscroll::util
