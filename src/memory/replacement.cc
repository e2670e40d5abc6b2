#include "memory/replacement.hh"

#include "sim/log.hh"

namespace unxpec {

unsigned
ReplacementState::victim(unsigned row, std::uint64_t allowed_mask)
{
    if (policy_ == ReplPolicy::LRU) {
        unsigned best = 0;
        std::uint64_t best_stamp = ~0ull;
        bool found = false;
        for (unsigned way = 0; way < ways_; ++way) {
            if (!(allowed_mask & (1ull << way)))
                continue;
            const auto stamp =
                stamps_[static_cast<std::size_t>(row) * ways_ + way];
            if (!found || stamp < best_stamp) {
                best = way;
                best_stamp = stamp;
                found = true;
            }
        }
        if (!found)
            panic("ReplacementState::victim: empty allowed mask");
        return best;
    }

    // Random: collect the allowed ways in index order and draw one;
    // the draw order is part of every seeded run's reproducibility.
    unsigned candidates[64];
    unsigned count = 0;
    for (unsigned way = 0; way < ways_; ++way) {
        if (allowed_mask & (1ull << way))
            candidates[count++] = way;
    }
    if (count == 0)
        panic("ReplacementState::victim: empty allowed mask");
    return candidates[rng_.range(count)];
}

} // namespace unxpec
