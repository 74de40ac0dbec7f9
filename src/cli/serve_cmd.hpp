/// \file serve_cmd.hpp
/// \brief `t1map --serve`: CLI wiring of the serve::Server JSONL loop.

#pragma once

#include "cli/options.hpp"

namespace t1map::cli {

/// Runs the serving loop on stdin/stdout, or on the `--serve-listen`
/// socket, and writes a session summary to stderr.  Returns the process
/// exit code: 1 when a response could not be written to stdout.
int run_serve(const Options& opts);

}  // namespace t1map::cli
