// Minimal command-line flag parsing for the bench binaries.
//
// Flags take the form --name=value or --name value; bare --name is a boolean true.
// Every name a bench asks about (Has / Get*) is recorded, and RejectUnknown(), called
// once all flags are read, exits 2 naming the first --flag nobody asked for — so a
// typo'd flag fails loudly instead of silently running the default workload. Benches
// print their understood flags with --help.
#ifndef SRL_HARNESS_CLI_H_
#define SRL_HARNESS_CLI_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

namespace srl {

class Cli {
 public:
  Cli(int argc, char** argv) : prog_(argc > 0 ? argv[0] : "") {
    for (int i = 1; i < argc; ++i) {
      args_.emplace_back(argv[i]);
    }
  }

  bool Has(const std::string& name) const {
    queried_.insert(name);
    for (const std::string& a : args_) {
      if (a == name || a.rfind(name + "=", 0) == 0) {
        return true;
      }
    }
    return false;
  }

  std::string GetString(const std::string& name, const std::string& def) const {
    queried_.insert(name);
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& a = args_[i];
      if (a.rfind(name + "=", 0) == 0) {
        return a.substr(name.size() + 1);
      }
      if (a == name && i + 1 < args_.size()) {
        return args_[i + 1];
      }
    }
    return def;
  }

  int64_t GetInt(const std::string& name, int64_t def) const {
    const std::string v = GetString(name, "");
    return v.empty() ? def : std::strtoll(v.c_str(), nullptr, 10);
  }

  double GetDouble(const std::string& name, double def) const {
    const std::string v = GetString(name, "");
    return v.empty() ? def : std::strtod(v.c_str(), nullptr);
  }

  bool GetBool(const std::string& name) const { return Has(name); }

  // The harness-wide --json flag: path for the bench's machine-readable output (see
  // BenchJson in table.h). Empty when not requested.
  std::string JsonPath() const { return GetString("--json", ""); }

  // Comma-separated integer list, e.g. --threads=1,2,4,8.
  std::vector<int> GetIntList(const std::string& name, std::vector<int> def) const {
    const std::string v = GetString(name, "");
    if (v.empty()) {
      return def;
    }
    std::vector<int> out;
    for (const std::string& item : SplitCommas(v)) {
      out.push_back(std::atoi(item.c_str()));
    }
    return out;
  }

  // Comma-separated string list, e.g. --variants=stock,list-refined.
  std::vector<std::string> GetStringList(const std::string& name,
                                         std::vector<std::string> def) const {
    const std::string v = GetString(name, "");
    return v.empty() ? def : SplitCommas(v);
  }

  // Exits 2 if any --flag on the command line was never queried. Call it after the
  // last Has/Get* and before any work. Words not starting with "--" are values (the
  // "1,2" of "--threads 1,2") and are not checked.
  void RejectUnknown() const {
    for (const std::string& a : args_) {
      if (a.rfind("--", 0) != 0) {
        continue;
      }
      const std::string name = a.substr(0, a.find('='));
      if (!queried_.contains(name)) {
        std::cerr << prog_ << ": unknown flag " << name << " (see --help)\n";
        std::exit(2);
      }
    }
  }

 private:
  static std::vector<std::string> SplitCommas(const std::string& v) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < v.size()) {  // a trailing comma yields no empty tail element
      const std::size_t comma = v.find(',', pos);
      if (comma == std::string::npos) {
        out.push_back(v.substr(pos));
        break;
      }
      out.push_back(v.substr(pos, comma - pos));
      pos = comma + 1;
    }
    return out;
  }

  std::string prog_;
  std::vector<std::string> args_;
  mutable std::set<std::string> queried_;  // every name passed to Has / GetString
};

}  // namespace srl

#endif  // SRL_HARNESS_CLI_H_
