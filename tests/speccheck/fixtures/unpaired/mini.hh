/** speccheck fixture: an unpaired UNXPEC_SPEC_STATE mutation.
 *
 * poke() mutates speculative state but is neither annotated as a
 * transition/rollback nor reachable from one — speccheck must report
 * an unpaired-spec-mutation finding at its write site. bump() does
 * the same by passing a speculative field to helpers that take it by
 * non-const reference (one of them a const member function).
 */
#ifndef UNXPEC_UNPAIRED_MINI_HH
#define UNXPEC_UNPAIRED_MINI_HH

enum class CleanupMode {
    UnsafeBaseline,
    Cleanup_FOR_L1,
};

namespace unxpec {

struct MiniLine {
    UNXPEC_SPEC_STATE bool speculative = false;
};

class MiniCache {
  public:
    UNXPEC_TRANSITION("spec")
    void install(unsigned way);

    UNXPEC_ROLLBACK("*")
    void squash(unsigned way);

    // Rogue helper: flips speculative state behind the annotation
    // contract's back.
    void poke(unsigned way);
    void bump(unsigned way);

  private:
    static void setBit(unsigned &mask, unsigned way);
    void clearIn(unsigned &mask) const;

    MiniLine lines_[4];
    UNXPEC_SPEC_STATE unsigned mask_ = 0;
};

}  // namespace unxpec

#endif // UNXPEC_UNPAIRED_MINI_HH
