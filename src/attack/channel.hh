/**
 * @file
 * Covert-channel calibration and decoding. The receiver classifies
 * each latency measurement against a threshold (paper §VI-A picks one
 * per variant from the observed distributions; the Fig. 7/8 entries of
 * src/experiments/ carry the paper's values).
 */

#ifndef UNXPEC_ATTACK_CHANNEL_HH
#define UNXPEC_ATTACK_CHANNEL_HH

#include <vector>

namespace unxpec {

/** Threshold-based one-bit decoder with calibration helpers. */
class CovertChannel
{
  public:
    /**
     * Choose the threshold minimizing empirical classification error
     * over labeled calibration samples.
     */
    static double calibrateThreshold(const std::vector<double> &zeros,
                                     const std::vector<double> &ones);

    /** Decode one sample: 1 when the latency exceeds the threshold. */
    static int decode(double latency, double threshold)
    {
        return latency > threshold ? 1 : 0;
    }

    /** Majority-vote decode over several samples of the same bit. */
    static int decodeMajority(const std::vector<double> &samples,
                              double threshold);

    /** Fraction of guesses matching the secret bits. */
    static double accuracy(const std::vector<int> &guesses,
                           const std::vector<int> &secret);
};

} // namespace unxpec

#endif // UNXPEC_ATTACK_CHANNEL_HH
