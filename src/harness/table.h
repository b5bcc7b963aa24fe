// Aligned text / CSV table printer for the figure-reproduction benches, plus the
// machine-readable BENCH_*.json emitter behind the harness --json flag.
#ifndef SRL_HARNESS_TABLE_H_
#define SRL_HARNESS_TABLE_H_

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/sync/topology.h"

namespace srl {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  const std::vector<std::string>& Headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& Rows() const { return rows_; }

  void Print(std::ostream& os, bool csv) const {
    if (csv) {
      PrintDelimited(os, ",");
      return;
    }
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    PrintPadded(os, headers_, widths);
    std::size_t total = 0;
    for (std::size_t w : widths) {
      total += w + 2;
    }
    os << std::string(total, '-') << "\n";
    for (const auto& row : rows_) {
      PrintPadded(os, row, widths);
    }
  }

  static std::string Num(double v, int decimals = 2) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
  }

 private:
  void PrintDelimited(std::ostream& os, const char* sep) const {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << (c ? sep : "") << headers_[c];
    }
    os << "\n";
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        os << (c ? sep : "") << row[c];
      }
      os << "\n";
    }
  }

  static void PrintPadded(std::ostream& os, const std::vector<std::string>& cells,
                          const std::vector<std::size_t>& widths) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c] << std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    os << "\n";
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Accumulates the tables a bench prints — each tagged with the panel metadata that the
// table's title line carries for humans — and writes them as one JSON document:
//
//   {"bench": "<name>",
//    "tables": [{"meta": {"cpus": <n>, ...}, "headers": [...],
//                "rows": [{"<header>": <cell>, ...}, ...]}, ...]}
//
// Cells that parse fully as numbers are emitted as JSON numbers so downstream tooling
// (the perf-trajectory scripts) can consume them without a coercion pass. Benches call
// Write() with the path from --json; an empty path is a no-op, so the call can be
// unconditional.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : bench_name_(std::move(bench_name)) {}

  // meta: flat key/value pairs describing the panel (variant, read_pct, ...). Every
  // table also records `cpus`, the core count it was measured on, so no bench has to
  // remember to.
  void AddTable(std::vector<std::pair<std::string, std::string>> meta,
                const Table& table) {
    meta.insert(meta.begin(), {"cpus", std::to_string(CpuCount())});
    tables_.push_back({std::move(meta), table.Headers(), table.Rows()});
  }

  // Returns false (after printing to stderr) if the file cannot be written.
  bool Write(const std::string& path) const {
    if (path.empty()) {
      return true;
    }
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write JSON to " << path << "\n";
      return false;
    }
    out << "{\"bench\": " << Quoted(bench_name_) << ", \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const Entry& e = tables_[t];
      out << (t ? ",\n  " : "\n  ") << "{\"meta\": {";
      for (std::size_t m = 0; m < e.meta.size(); ++m) {
        out << (m ? ", " : "") << Quoted(e.meta[m].first) << ": "
            << Value(e.meta[m].second);
      }
      out << "}, \"headers\": [";
      for (std::size_t h = 0; h < e.headers.size(); ++h) {
        out << (h ? ", " : "") << Quoted(e.headers[h]);
      }
      out << "], \"rows\": [";
      for (std::size_t r = 0; r < e.rows.size(); ++r) {
        out << (r ? ",\n    " : "\n    ") << "{";
        for (std::size_t c = 0; c < e.rows[r].size() && c < e.headers.size(); ++c) {
          out << (c ? ", " : "") << Quoted(e.headers[c]) << ": " << Value(e.rows[r][c]);
        }
        out << "}";
      }
      out << "]}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Entry {
    std::vector<std::pair<std::string, std::string>> meta;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  static std::string Quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  // Emit as a bare JSON number only when the cell matches the JSON number grammar:
  //   -? (0 | [1-9][0-9]*) ('.' [0-9]+)? ([eE][+-]?[0-9]+)?
  // Everything else (inf/nan, ".5", "+3", hex, ...) is quoted.
  static std::string Value(const std::string& s) {
    return IsJsonNumber(s) ? s : Quoted(s);
  }

  static bool IsJsonNumber(const std::string& s) {
    std::size_t i = 0;
    const std::size_t n = s.size();
    auto digits = [&] {  // consumes [0-9]+, false if none
      const std::size_t start = i;
      while (i < n && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      return i > start;
    };
    if (i < n && s[i] == '-') {
      ++i;
    }
    if (i < n && s[i] == '0') {
      ++i;  // a leading zero must stand alone
    } else if (!digits()) {
      return false;
    }
    if (i < n && s[i] == '.') {
      ++i;
      if (!digits()) {
        return false;
      }
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < n && (s[i] == '+' || s[i] == '-')) {
        ++i;
      }
      if (!digits()) {
        return false;
      }
    }
    return i == n && n > 0;
  }

  std::string bench_name_;
  std::vector<Entry> tables_;
};

}  // namespace srl

#endif  // SRL_HARNESS_TABLE_H_
