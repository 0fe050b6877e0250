// Host probes that run outside the timed operations: the parallelism the
// runner delivers, and per-layer micro-timings on one fixed matrix.
#pragma once

#include <map>
#include <string>

#include "spans.hpp"

namespace perf {

/// Work two spinning threads finish in `window_seconds`, over the work one
/// thread finishes alone: 2.0 on two idle cores, less when the host
/// time-slices the benchmark with other load.
double effective_cores(double window_seconds);

/// Times single calls into the sparse, cache-replay, run-cache, loadgen,
/// integrity and degraded-pricing layers on testbed matrix #27 at `scale`,
/// each inside a "probe.*" span. Keys are per-layer metric names.
std::map<std::string, double> probe_layers(Tracer& tracer, double scale);

}  // namespace perf
