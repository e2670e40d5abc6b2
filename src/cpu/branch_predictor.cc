#include "cpu/branch_predictor.hh"

#include <algorithm>

namespace unxpec {

BimodalPredictor::BimodalPredictor(unsigned table_bits)
    : tableBits_(table_bits),
      counters_(1u << table_bits, 1) // weakly not-taken
{
}

unsigned
BimodalPredictor::index(std::uint64_t pc) const
{
    return static_cast<unsigned>(pc & ((1u << tableBits_) - 1));
}

bool
BimodalPredictor::predict(std::uint64_t pc)
{
    return counters_[index(pc)] >= 2;
}

void
BimodalPredictor::update(std::uint64_t pc, bool taken)
{
    std::uint8_t &counter = counters_[index(pc)];
    if (taken)
        counter = std::min<std::uint8_t>(3, counter + 1);
    else
        counter = counter > 0 ? counter - 1 : 0;
}

void
BimodalPredictor::reset()
{
    std::fill(counters_.begin(), counters_.end(), 1);
}

} // namespace unxpec
