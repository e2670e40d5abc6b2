/**
 * @file
 * Eviction-set construction (Vila et al., S&P'19). The unXpec
 * optimization primes the L1 sets that the secret-1 transient loads
 * map to, forcing every transient install to displace an attacker
 * line, which CleanupSpec must then restore — lengthening rollback and
 * enlarging the secret-dependent timing difference (paper §V-B).
 *
 * The L1 uses conventional modulo indexing, so congruent addresses
 * are computed outright (the paper's non-SMT threat model permits
 * this).
 */

#ifndef UNXPEC_ATTACK_EVICTION_SET_HH
#define UNXPEC_ATTACK_EVICTION_SET_HH

#include <vector>

#include "sim/types.hh"

namespace unxpec {

/** Builder for L1 eviction sets. */
class EvictionSet
{
  public:
    /**
     * Addresses congruent with `target` under modulo indexing:
     * `count` lines, starting from `pool_base`, that land in the same
     * set as `target` in a cache of `num_sets` sets.
     */
    static std::vector<Addr> direct(Addr target, unsigned num_sets,
                                    unsigned count, Addr pool_base);
};

} // namespace unxpec

#endif // UNXPEC_ATTACK_EVICTION_SET_HH
