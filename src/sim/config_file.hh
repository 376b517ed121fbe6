/**
 * @file
 * Machine-description files: a small INI dialect that builds a
 * SimConfig, so experiments can be defined in version-controlled text
 * instead of C++.
 *
 *   # comments with '#' or ';'
 *   workload = compress          # top-level keys
 *   os_level = 1
 *   [core]                       # sections per subsystem
 *   issue_width = 8
 *   [tech]
 *   ports = 1
 *   width = 32
 *   store_buffer = 8
 *   line_buffers = 4
 *
 * Unknown sections or keys are hard errors (catching typos beats
 * silently ignoring them); values are validated per key.  See
 * `docs/machine_files.md` for the full key list.
 */

#ifndef CPE_SIM_CONFIG_FILE_HH
#define CPE_SIM_CONFIG_FILE_HH

#include <string>

#include "sim/config.hh"

namespace cpe::sim {

/** Outcome of parsing a machine file. */
struct ConfigParseResult
{
    bool ok = false;
    std::string error;  ///< first error, with a line number
    SimConfig config;   ///< defaults overlaid with the file (valid on ok)

    explicit operator bool() const { return ok; }
};

/** Parse machine-description text (starting from SimConfig::defaults). */
ConfigParseResult parseConfig(const std::string &source);

/** Load and parse a machine file from disk. */
ConfigParseResult loadConfigFile(const std::string &path);

/**
 * Serialize @p config as machine-file text that parseConfig() reads
 * back to an equivalent configuration — the reproducibility artefact
 * to archive next to a run's results, and (label cleared) the identity
 * sim::ResultStore keys its entries by — so a knob that an experiment
 * varies must be emitted here, or two different machines share one
 * memo entry.  Pointers (trace sink, trace cache) and a disarmed chaos
 * spec are not emitted.
 */
std::string toMachineFile(const SimConfig &config);

} // namespace cpe::sim

#endif // CPE_SIM_CONFIG_FILE_HH
