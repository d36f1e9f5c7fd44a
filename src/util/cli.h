// The one command-line entry of every bench, example and tool binary: each
// `main` hands its argv, a usage synopsis and its body to run_main, which
// owns help, the bare smoke flag, argv errors, log setup and the exit codes.
#pragma once

#include <functional>
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
///     level through init_log;
///   - an exception escaping `body` prints "<prog>: <what>" to stderr and
///     returns 1.
/// Otherwise returns `body`'s exit code. <prog> is argv[0]'s file name.
int run_main(int argc, const char* const* argv, const char* usage,
             const std::function<int(const Config&)>& body);

/// True for the help flags run_main answers: `--help` and `-h`. Tools test
/// their subcommand slot with it to print their overview.
bool is_help_flag(std::string_view token);

}  // namespace drlnoc::util
