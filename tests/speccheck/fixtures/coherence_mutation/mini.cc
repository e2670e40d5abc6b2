// speccheck fixture: a MESI state written outside the coh:: transition
// helpers (coherence-mutation).
namespace unxpec {

enum class CohState { Invalid, Shared, Exclusive, Modified };

struct MiniLine {
    CohState coh = CohState::Invalid;
    bool pendingDowngrade = false;
};

void
forceModified(MiniLine &line)
{
    line.coh = CohState::Modified;
    line.pendingDowngrade = false;
}

}  // namespace unxpec
