#include "attack/eviction_set.hh"

namespace unxpec {

std::vector<Addr>
EvictionSet::direct(Addr target, unsigned num_sets, unsigned count,
                    Addr pool_base)
{
    const Addr target_line = lineNumber(lineAlign(target));
    const unsigned target_set =
        static_cast<unsigned>(target_line % num_sets);

    std::vector<Addr> set_addresses;
    Addr line = lineNumber(lineAlign(pool_base));
    // Advance to the first pool line in the target's set.
    const unsigned pool_set = static_cast<unsigned>(line % num_sets);
    line += (target_set + num_sets - pool_set) % num_sets;

    while (set_addresses.size() < count) {
        const Addr addr = line << kLineShift;
        if (addr != lineAlign(target))
            set_addresses.push_back(addr);
        line += num_sets; // next congruent line
    }
    return set_addresses;
}

} // namespace unxpec
