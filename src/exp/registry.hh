/**
 * @file
 * The experiment registry: self-registering table of every experiment
 * of the reconstructed evaluation.  Registration translation units
 * (bench/exp_*.cc) construct a Registrar at namespace scope; the
 * driver, the regression gate, and the tests enumerate the registry.
 *
 * Enumeration order is canonical — sorted T1..Tn then F1..Fn — so it
 * never depends on static-initialization order across translation
 * units.
 */

#ifndef CPE_EXP_REGISTRY_HH
#define CPE_EXP_REGISTRY_HH

#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace cpe::exp {

/** Process-wide id -> Experiment table. */
class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Register an experiment and derive its workloads from its gated
     *  grid; duplicate ids and ungated experiments are bugs (panics). */
    void add(Experiment experiment);

    bool has(const std::string &id) const;

    /** @return the experiment, or nullptr when unknown. */
    const Experiment *find(const std::string &id) const;

    /**
     * The experiment named @p id; throws ConfigError listing every
     * registered id
     * when unknown (for user-supplied --run lists).
     */
    const Experiment &get(const std::string &id) const;

    /** Every registered id in canonical order. */
    std::vector<std::string> ids() const;

    /** Every experiment in canonical order. */
    std::vector<const Experiment *> all() const;

  private:
    ExperimentRegistry() = default;

    std::vector<Experiment> experiments_;
};

/** Registers an experiment from a static initializer. */
struct Registrar
{
    explicit Registrar(Experiment experiment)
    {
        ExperimentRegistry::instance().add(std::move(experiment));
    }
};

} // namespace cpe::exp

#endif // CPE_EXP_REGISTRY_HH
