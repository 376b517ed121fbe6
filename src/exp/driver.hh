/**
 * @file
 * The cpe_eval driver: one binary for the whole reconstructed
 * evaluation.  Lists, runs, and regression-checks registered
 * experiments; the main() of the cpe_eval binary forwards straight
 * here so the argument parser and every mode stay unit-testable.
 */

#ifndef CPE_EXP_DRIVER_HH
#define CPE_EXP_DRIVER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "util/json.hh"

namespace cpe::exp {

/**
 * The workload subset the committed regression baselines are recorded
 * at (one integer, one FP, one memory-bound kernel): small enough for
 * a ctest smoke gate, varied enough that a silent change to any
 * technique's effect moves at least one geomean.
 */
const std::vector<std::string> &reducedSuite();

/**
 * Load and parse the committed baseline for @p id from @p dir; throws
 * IoError (absent/unreadable) or ConfigError (wrong experiment) with
 * a pointer at --write-baseline.
 */
Json loadBaseline(const std::string &dir, const std::string &id);

/** Full command-line entry point of the cpe_eval binary. */
int evalMain(int argc, char **argv);

} // namespace cpe::exp

#endif // CPE_EXP_DRIVER_HH
