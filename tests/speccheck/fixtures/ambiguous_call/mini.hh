/** speccheck fixture: a call whose receiver the frontend cannot type,
 * to a method name two modeled classes declare (must warn, not fail).
 *
 * Not compiled by the build — parsed only by scripts/speccheck in the
 * fixture tests (tests/speccheck/run_fixtures.py).
 */
#ifndef UNXPEC_AMBIGUOUS_CALL_MINI_HH
#define UNXPEC_AMBIGUOUS_CALL_MINI_HH

enum class CleanupMode {
    UnsafeBaseline,
    Cleanup_FOR_L1,
};

namespace unxpec {

class Shadow {
  public:
    void drop(unsigned way);
};

class Ledger {
  public:
    void drop(unsigned way);
};

namespace util {
void drop(unsigned way);
}  // namespace util

class MiniCache {
  public:
    UNXPEC_TRANSITION("spec")
    void install(unsigned way);

    UNXPEC_ROLLBACK("*")
    void squash(unsigned way);

  private:
    Shadow &shadow();

    Ledger ledger_;
    UNXPEC_SPEC_STATE unsigned mask_ = 0;
};

}  // namespace unxpec

#endif // UNXPEC_AMBIGUOUS_CALL_MINI_HH
