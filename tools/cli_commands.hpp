// Implementation of the `scc-spmv` command-line tool, split from main() so
// every command is testable in-process through run_cli, which dispatches on
// the command and returns the process exit code.
//
// Commands:
//   generate  -- write a synthetic matrix (any generator family) as .mtx
//   testbed   -- export a Table-I stand-in as .mtx
//   analyze   -- structural + locality report for a matrix
//   simulate  -- run the SCC simulator on a matrix (cores/mapping/conf/format)
//   convert   -- normalize / RCM-reorder a Matrix Market file
//   resilience -- run the fault-injected RCCE SpMV and report the recovery
//   serve     -- multi-tenant serving simulation (admission, co-scheduling)
//   cluster   -- multi-chip cluster serving with injected faults + failover
//   autotune  -- explore format/reorder/cores/mapping per matrix, pin winners
//   report    -- aggregate schema-v1 JSON reports into a comparison table
//
// Every command honours the shared output flags (`--json[=FILE]`,
// `--trace=FILE`) parsed by scc::parse_output_options, and rejects any flag
// it does not read before it loads, runs or writes anything.
#pragma once

#include <iosfwd>

#include "common/cli.hpp"

namespace scc::tools {

/// Dispatch on args.positional()[0]; prints usage and returns 2 on unknown
/// or missing command.
int run_cli(const CliArgs& args, std::ostream& out, std::ostream& err);

}  // namespace scc::tools
