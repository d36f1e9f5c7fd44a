#include "util/cli.h"

#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/log.h"

namespace drlnoc::util {

int run_main(int argc, const char* const* argv, const char* usage,
             const std::function<int(const Config&)>& body) {
  const std::string prog =
      argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "";
  // Bare flags carry no value, so they leave before the key=value parser.
  std::vector<const char*> args(argv, argv + (argc > 0 ? 1 : 0));
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (is_help_flag(token)) {
      std::cout << usage;
      return 0;
    }
    if (token == "--smoke" || token == "smoke") {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  Config cfg;
  try {
    cfg = Config::from_args(static_cast<int>(args.size()), args.data());
  } catch (const std::invalid_argument& e) {
    std::cerr << prog << ": " << e.what() << "\n" << usage;
    return 2;
  }
  if (smoke) cfg.set("smoke", "1");
  init_log(cfg.get("log", std::string()));
  try {
    return body(cfg);
  } catch (const std::exception& e) {
    std::cerr << prog << ": " << e.what() << "\n";
    return 1;
  }
}

bool is_help_flag(std::string_view token) {
  return token == "--help" || token == "-h";
}

}  // namespace drlnoc::util
