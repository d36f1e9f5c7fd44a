// The one command-line entry of every bench, example and tool binary: each
// `main` hands its argv, a usage synopsis and its body to run_main, which
// owns help, the bare smoke flag, argv errors, log setup and the exit codes.
// Tools with subcommands hand run_subcommand a table of them instead.
#pragma once

#include <functional>
#include <initializer_list>
#include <string_view>

#include "util/config.h"

namespace drlnoc::util {

/// Runs `body` on the Config parsed from argv (argv[0] is the program) under
/// the shared CLI contract:
///   - `--help` or `-h` anywhere prints `usage` to stdout and returns 0
///     without running `body`;
///   - the bare flags `--smoke` and `smoke` become `smoke=1`;
///   - a token Config::from_args rejects prints "<prog>: <what>" and `usage`
///     to stderr and returns 2;
///   - `log=LEVEL` (and the DRLNOC_LOG environment variable) set the log
///     level through init_log; an unknown level prints "<prog>: <what>" and
///     `usage` to stderr and returns 2;
///   - an exception escaping `body` prints "<prog>: <what>" to stderr and
///     returns 1.
/// Otherwise returns `body`'s exit code. <prog> is argv[0]'s file name.
int run_main(int argc, const char* const* argv, const char* usage,
             const std::function<int(const Config&)>& body);

/// One subcommand of a tool: the name after the program, the help text
/// run_main prints for it, and its body.
struct Subcommand {
  std::string_view name;
  const char* help;
  int (*body)(const Config&);
};

/// The `main` of a tool invoked as `<prog> <command> [key=value...]`:
///   - no command prints `usage` to stderr and returns 2;
///   - a help flag as the command prints `usage` to stdout and returns 0;
///   - an unknown command prints "<prog>: unknown command 'X'" and `usage`
///     to stderr and returns 2.
/// Otherwise runs the command's body through run_main on the arguments
/// after the command, with the command's help text, still named <prog>.
int run_subcommand(int argc, const char* const* argv, const char* usage,
                   std::initializer_list<Subcommand> commands);

}  // namespace drlnoc::util
