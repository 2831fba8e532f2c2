#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/churn_plan.hpp"
#include "sim/faults.hpp"

namespace qoslb {

/// The list specs the tools take beside ArgParser's flags: comma-separated
/// items (empty ones skipped), each a number or a colon-separated tuple of
/// numbers. Every number follows one strict rule: decimal digits only, so
/// no sign, no space and no trailing text, and no overflow of its type; a
/// time may also carry a fraction and an exponent but must be finite. Each
/// parser returns a value or throws std::invalid_argument naming the flag
/// and the raw text ("--kill expects a round, got '2x'", "--kill is out of
/// range, got '99999999999999999999999'").

/// qoslb-chaos --kill: "ROUND,ROUND,...", strictly increasing.
std::vector<std::uint64_t> parse_kill_spec(std::string_view spec);

/// --fail and --recover: "R:ROUND,R:ROUND,..." each, in round order, merged
/// into one plan; within a round failures apply before recoveries.
/// ChurnPlan::validate checks the plan against a world, and rejects it when
/// a list was out of round order.
ChurnPlan parse_churn_specs(std::string_view fail_spec,
                            std::string_view recover_spec);

/// qoslb --crash: "R:T0:T1,...", agent R down over [T0, T1).
/// FaultPlan::validate checks the windows.
std::vector<CrashWindow> parse_crash_spec(std::string_view spec);

}  // namespace qoslb
