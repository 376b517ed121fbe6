/**
 * @file
 * cpe_eval — the one evaluation driver.  Lists, runs, and
 * regression-checks every registered experiment (T1–T3, F1–F13); see
 * --help for the flag reference.  The microbenchmark timing harness
 * (bench_sim_speed) remains a separate google-benchmark binary.
 */

#include "exp/driver.hh"

int
main(int argc, char **argv)
{
    return cpe::exp::evalMain(argc, argv);
}
