#include "util/cli.h"

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/log.h"

namespace drlnoc::util {

namespace {
std::string program_name(int argc, const char* const* argv) {
  return argc > 0 ? std::filesystem::path(argv[0]).filename().string() : "";
}

bool is_help_flag(std::string_view token) {
  return token == "--help" || token == "-h";
}
}  // namespace

int run_main(int argc, const char* const* argv, const char* usage,
             const std::function<int(const Config&)>& body) {
  const std::string prog = program_name(argc, argv);
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
  const std::string level = cfg.get("log", std::string());
  if (!init_log(level)) {
    // Name the level that failed: log= when it is the bad one, else
    // DRLNOC_LOG.
    const std::string bad = !level.empty() && !parse_log_level(level)
                                ? "log=" + level
                                : "DRLNOC_LOG=" +
                                      std::string(std::getenv("DRLNOC_LOG"));
    std::cerr << prog << ": unknown log level " << bad
              << " (want debug|info|warn|error|off)\n"
              << usage;
    return 2;
  }
  try {
    return body(cfg);
  } catch (const std::exception& e) {
    std::cerr << prog << ": " << e.what() << "\n";
    return 1;
  }
}

int run_subcommand(int argc, const char* const* argv, const char* usage,
                   std::initializer_list<Subcommand> commands) {
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string_view command = argv[1];
  if (is_help_flag(command)) {
    std::cout << usage;
    return 0;
  }
  for (const Subcommand& sub : commands) {
    if (sub.name != command) continue;
    // The command's arguments, under the program's own name.
    std::vector<const char*> args(argv + 1, argv + argc);
    args[0] = argv[0];
    return run_main(static_cast<int>(args.size()), args.data(), sub.help,
                    sub.body);
  }
  std::cerr << program_name(argc, argv) << ": unknown command '" << command
            << "'\n"
            << usage;
  return 2;
}

}  // namespace drlnoc::util
