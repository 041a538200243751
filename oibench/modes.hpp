// The benchmark's two modes. The untraced run measures the end-to-end
// metrics of one workload; the traced run replays the same workload's op
// stream rung by rung and reports the per-layer metrics.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace oibench {

Result run_end_to_end(const WorkloadDef& w, std::uint64_t seed, double seconds);
Result run_ladder(const WorkloadDef& w, std::uint64_t seed, double seconds);

}  // namespace oibench
