// One command-line parser for every executable in the repo (benches,
// examples, adx-check). Each program declares its flags once — name, default,
// help text — and gets in return:
//
//   * `--name=value` and `--name value` parsing,
//   * a generated `--help` screen built from the declaration table,
//   * a clean error (exit 2) on unknown flags or malformed values,
//
// replacing the per-bench ad-hoc argv scans that silently ignored typos.
//
//   auto opt = adx::cli::options("bench_fig4", "lock pattern figure")
//                  .u64("cities", 10, "TSP problem size")
//                  .str("lock", "adaptive", "lock kind to trace")
//                  .flag("csv", "emit raw trace points as CSV");
//   opt.parse(argc, argv);
//   const auto cities = opt.get_u64("cities");
//
// Header-only: the parser is small and every user links a different binary.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace adx::cli {

class options {
 public:
  options(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  /// Declares an unsigned integer flag.
  options& u64(std::string name, std::uint64_t def, std::string help) {
    decls_.push_back({std::move(name), kind::u64, std::to_string(def),
                      std::move(help)});
    return *this;
  }

  /// Declares a string flag.
  options& str(std::string name, std::string def, std::string help) {
    decls_.push_back({std::move(name), kind::str, std::move(def), std::move(help)});
    return *this;
  }

  /// Declares a boolean flag (present = true; takes no value).
  options& flag(std::string name, std::string help) {
    decls_.push_back({std::move(name), kind::boolean, "", std::move(help)});
    return *this;
  }

  /// Appends a free-form line to the generated --help screen (printed after
  /// the flag table). Benches use this to state which clock each figure is
  /// measured on — simulated virtual time vs host wall time.
  options& note(std::string line) {
    notes_.push_back(std::move(line));
    return *this;
  }

  /// Parses argv. On `--help`/`-h` prints the generated usage table and exits
  /// 0; on an unknown flag or malformed value prints an error and exits 2.
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_help(std::cout);
        std::exit(0);
      }
      if (arg.size() < 3 || arg.substr(0, 2) != "--") {
        die("unexpected argument: " + std::string(arg));
      }
      std::string_view name = arg.substr(2);
      std::string_view value;
      bool has_value = false;
      if (const auto eq = name.find('='); eq != std::string_view::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_value = true;
      }
      decl* d = find(name);
      if (d == nullptr) die("unknown flag: --" + std::string(name));
      if (d->k == kind::boolean) {
        if (has_value) die("flag --" + d->name + " takes no value");
        d->value.assign(1, '1');  // not = "1": GCC 12 warns -Wrestrict on that
        d->set = true;
        continue;
      }
      if (!has_value) {
        if (i + 1 >= argc) die("flag --" + d->name + " needs a value");
        value = argv[++i];
      }
      if (d->k == kind::u64 && !is_u64(value)) {
        die("flag --" + d->name + " needs an unsigned integer, got '" +
            std::string(value) + "'");
      }
      d->value = std::string(value);
      d->set = true;
    }
  }

  [[nodiscard]] std::uint64_t get_u64(std::string_view name) const {
    return std::strtoull(get(name, kind::u64).value.c_str(), nullptr, 10);
  }
  [[nodiscard]] const std::string& get_str(std::string_view name) const {
    return get(name, kind::str).value;
  }
  [[nodiscard]] bool get_flag(std::string_view name) const {
    return get(name, kind::boolean).set;
  }
  /// True if the flag appeared on the command line (vs. holding its default).
  [[nodiscard]] bool was_set(std::string_view name) const {
    for (const auto& d : decls_) {
      if (d.name == name) return d.set;
    }
    return false;
  }

  void print_help(std::ostream& os) const {
    os << program_ << " — " << summary_ << "\n\nOptions:\n";
    std::size_t width = 0;
    for (const auto& d : decls_) width = std::max(width, label(d).size());
    for (const auto& d : decls_) {
      const auto lbl = label(d);
      os << "  " << lbl << std::string(width - lbl.size() + 2, ' ') << d.help;
      if (d.k != kind::boolean) os << " (default: " << (d.value.empty() ? "\"\"" : d.value) << ')';
      os << '\n';
    }
    os << "  --help" << std::string(width > 4 ? width - 4 + 2 : 2, ' ')
       << "show this help\n";
    if (!notes_.empty()) {
      os << '\n';
      for (const auto& n : notes_) os << n << '\n';
    }
  }

 private:
  enum class kind : std::uint8_t { u64, str, boolean };
  struct decl {
    std::string name;
    kind k;
    std::string value;  ///< current value (default until overridden)
    std::string help;
    bool set{false};
  };

  [[nodiscard]] static std::string label(const decl& d) {
    switch (d.k) {
      case kind::u64: return "--" + d.name + "=<n>";
      case kind::str: return "--" + d.name + "=<s>";
      case kind::boolean: return "--" + d.name;
    }
    return "--" + d.name;
  }

  [[nodiscard]] static bool is_u64(std::string_view v) {
    if (v.empty()) return false;
    for (const char c : v) {
      if (c < '0' || c > '9') return false;
    }
    return true;
  }

  [[noreturn]] void die(const std::string& why) const {
    std::cerr << program_ << ": " << why << "\n(run with --help for usage)\n";
    std::exit(2);
  }

  decl* find(std::string_view name) {
    for (auto& d : decls_) {
      if (d.name == name) return &d;
    }
    return nullptr;
  }

  const decl& get(std::string_view name, kind k) const {
    for (const auto& d : decls_) {
      if (d.name == name) {
        if (d.k != k) throw std::logic_error("options: wrong type for --" + d.name);
        return d;
      }
    }
    throw std::logic_error("options: undeclared flag --" + std::string(name));
  }

  std::string program_;
  std::string summary_;
  std::vector<decl> decls_;
  std::vector<std::string> notes_;
};

}  // namespace adx::cli
