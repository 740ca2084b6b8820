// The benchmark's three workloads. Each builds its inputs from the seed,
// measures for the requested seconds, checks the outputs, and returns its
// report (end-to-end metrics untraced, per-layer metrics traced).
#pragma once

#include "measure.hpp"
#include "wl_common.hpp"

namespace perfbench {

/// `divscrape analyze --alerts` on one amadeus_like log (closed, 1 thread).
[[nodiscard]] Report run_analyze_alerts(const Options& options);
/// `tail --follow --shards 2` over 4 vhost logs written live (open loop).
[[nodiscard]] Report run_live_tail4(const Options& options);
/// Warm restart of the 2-shard tail over an outage backlog (closed).
[[nodiscard]] Report run_catchup_warm4(const Options& options);

}  // namespace perfbench
