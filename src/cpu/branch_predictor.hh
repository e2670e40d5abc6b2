/**
 * @file
 * Direction predictor. The attack mistrains a branch by executing it
 * repeatedly with in-bounds operands (Algorithm 1/2 POISON), so the
 * predictor must saturate toward the trained direction and keep
 * predicting it for the out-of-bounds round. Per-PC 2-bit counters do
 * exactly that.
 */

#ifndef UNXPEC_CPU_BRANCH_PREDICTOR_HH
#define UNXPEC_CPU_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace unxpec {

/** Per-PC 2-bit saturating counters. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(unsigned table_bits = 12);

    /** Predict the direction of the branch at `pc`. */
    bool predict(std::uint64_t pc);

    /** Train with the resolved direction. */
    void update(std::uint64_t pc, bool taken);

    /** Forget everything (fresh predictor). */
    void reset();

  private:
    unsigned index(std::uint64_t pc) const;

    unsigned tableBits_;
    std::vector<std::uint8_t> counters_;
};

} // namespace unxpec

#endif // UNXPEC_CPU_BRANCH_PREDICTOR_HH
