// Entry point of the scenario engine; see scenario.hpp for the
// vocabulary. Separate header so callers that only build specs (the
// named-scenario registry, the bench CLI) don't pull in the engine's
// dependencies.
#pragma once

#include "workload/scenario.hpp"

namespace pop::workload {

// Executes the scenario: builds the (ds, smr) set, prefills, runs the
// phase schedule with churn/stall/sampling as specified, joins, and
// aggregates. Aborts on an unknown ds/smr name (the bench binaries check
// names first). This is the single worker-loop implementation every
// bench binary shares.
ScenarioResult run_scenario(const ScenarioSpec& spec);

}  // namespace pop::workload
