#include "memory/replacement.hh"

namespace unxpec {

unsigned
ReplacementState::victim(unsigned row)
{
    if (policy_ == ReplPolicy::LRU) {
        const std::uint64_t *stamps =
            stamps_.data() + static_cast<std::size_t>(row) * ways_;
        unsigned best = 0;
        for (unsigned way = 1; way < ways_; ++way) {
            if (stamps[way] < stamps[best])
                best = way;
        }
        return best;
    }

    // Random: one draw over every way; the draw sequence is part of
    // every seeded run's reproducibility.
    return static_cast<unsigned>(rng_.range(ways_));
}

} // namespace unxpec
