/** speccheck fixture: fully paired speculative state (must pass).
 *
 * Not compiled by the build — parsed only by scripts/speccheck in the
 * fixture tests (tests/speccheck/run_fixtures.py).  The UNXPEC_*
 * macros are consumed textually, so no include of annotate.hh is
 * needed here.
 */
#ifndef UNXPEC_CLEAN_MINI_HH
#define UNXPEC_CLEAN_MINI_HH

enum class CleanupMode {
    UnsafeBaseline,
    Cleanup_FOR_L1,
};

namespace unxpec {

struct MiniLine {
    UNXPEC_SPEC_STATE bool speculative = false;
    UNXPEC_SPEC_STATE unsigned installer = 0;
    int committedData = 0;
};

class MiniCache {
  public:
    UNXPEC_TRANSITION("spec")
    void install(unsigned way);

    UNXPEC_ROLLBACK("*")
    void squash(unsigned way);

    /** Not a transition: it only hands spec state to callees that
     *  bind it read-only, so it mutates nothing. */
    bool anySpeculative() const;

  private:
    // A const member function and a const-reference parameter.
    unsigned lowest(unsigned mask) const;
    static unsigned count(const unsigned &mask);

    MiniLine lines_[4];
    UNXPEC_SPEC_STATE unsigned mask_ = 0;
};

}  // namespace unxpec

#endif // UNXPEC_CLEAN_MINI_HH
