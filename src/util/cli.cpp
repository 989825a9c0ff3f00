#include "util/cli.hpp"

#include <cstdlib>
#include <string_view>
#include <vector>

namespace gh {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    // "--key=value", or a bare "--flag", which reads as "1".
    const std::string_view option = arg.substr(2);
    const usize eq = option.find('=');
    const std::string_view value = eq == std::string_view::npos ? "1" : option.substr(eq + 1);
    options_.insert_or_assign(std::string(option.substr(0, eq)), std::string(value));
  }
}

std::optional<std::string> Cli::get(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key, std::string def) const {
  return get(key).value_or(std::move(def));
}

u64 Cli::get_u64(const std::string& key, u64 def) const {
  const auto v = get(key);
  return v ? std::strtoull(v->c_str(), nullptr, 0) : def;
}

double Cli::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  return v ? std::strtod(v->c_str(), nullptr) : def;
}

bool Cli::has(const std::string& key) const { return options_.count(key) != 0; }

u64 env_u64(const std::string& name, u64 def) {
  const char* v = std::getenv(name.c_str());
  return v ? std::strtoull(v, nullptr, 0) : def;
}

std::string env_str(const std::string& name, std::string def) {
  const char* v = std::getenv(name.c_str());
  return v ? std::string(v) : def;
}

u32 bench_scale_shift() {
  const std::string v = env_str("GH_SCALE", "5");
  if (v == "paper") return 0;
  return static_cast<u32>(std::strtoul(v.c_str(), nullptr, 0));
}

}  // namespace gh
