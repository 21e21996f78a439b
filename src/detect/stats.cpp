#include "detect/stats.hpp"

#include "support/telemetry.hpp"

namespace pint::detect {

// Out of line so each name is one literal: telemetry keys its per-thread
// totals by the name pointer.
void Stats::export_telemetry() const {
#define PINT_STATS_TELEM(name) telem::count(#name, name.load());
  PINT_STATS_COUNTERS(PINT_STATS_TELEM)
#undef PINT_STATS_TELEM
}

}  // namespace pint::detect
