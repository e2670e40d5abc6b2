/** speccheck fixture: a defense squash path missing one field.
 *
 * install() marks both speculative and installer; squash() restores
 * only speculative.  The Cleanup_FOR_L1 undo-set therefore lacks
 * MiniLine::installer and speccheck must fail the coverage gate for
 * that mode (UnsafeBaseline stays exempt).
 */
#ifndef UNXPEC_INCOMPLETE_MINI_HH
#define UNXPEC_INCOMPLETE_MINI_HH

enum class CleanupMode {
    UnsafeBaseline,
    Cleanup_FOR_L1,
};

namespace unxpec {

struct MiniLine {
    UNXPEC_SPEC_STATE bool speculative = false;
    UNXPEC_SPEC_STATE unsigned installer = 0;
};

class MiniCache {
  public:
    UNXPEC_TRANSITION("spec")
    void install(unsigned way);

    UNXPEC_ROLLBACK("Cleanup_FOR_L1")
    void squash(unsigned way);

  private:
    MiniLine lines_[4];
};

}  // namespace unxpec

#endif // UNXPEC_INCOMPLETE_MINI_HH
