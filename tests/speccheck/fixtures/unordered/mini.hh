/** speccheck fixture: nondeterministic unordered-container walk.
 *
 * sum() range-iterates a std::unordered_map, whose order varies with
 * the hash seed / libstdc++ version — speccheck's determinism check
 * must report an unordered-iteration finding.
 */
#ifndef UNXPEC_UNORDERED_MINI_HH
#define UNXPEC_UNORDERED_MINI_HH

#include <unordered_map>

enum class CleanupMode {
    UnsafeBaseline,
};

namespace unxpec {

class MiniStats {
  public:
    long sum() const;

  private:
    std::unordered_map<int, long> table_;
};

}  // namespace unxpec

#endif // UNXPEC_UNORDERED_MINI_HH
