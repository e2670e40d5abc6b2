/**
 * @file
 * Cache line metadata. The simulator splits function from timing: data
 * always lives in the functional backing store (MainMemory), so cache
 * arrays only track tags and state bits. That makes CleanupSpec's
 * invalidate/restore rollback a pure tag-state operation, exactly the
 * part whose *timing* the unXpec attack exploits.
 */

#ifndef UNXPEC_MEMORY_CACHE_LINE_HH
#define UNXPEC_MEMORY_CACHE_LINE_HH

#include "sim/annotate.hh"
#include "sim/types.hh"

namespace unxpec {

/**
 * Coherence state of a line (MESI-style, single-writer). CleanupSpec
 * delays "unsafe" downgrades (M/E to S) requested while the owning
 * load is still speculative, so coherence-state probes (Yao et al.,
 * HPCA'18) cannot observe speculative activity. Invalid is the zero
 * enumerator: an all-zero CacheLine is an empty way.
 */
enum class CohState : std::uint8_t
{
    Invalid,
    Modified,
    Exclusive,
    Shared,
};

/**
 * State of one cache way. Its address lives only in the cache's tag
 * array. The empty way is `CacheLine{}`, and its bytes are all zero
 * (ZeroArray checks this), so a freshly allocated line array is empty.
 */
struct CacheLine
{
    /**
     * Sequence number of the installing load while `speculative`, 0
     * otherwise (read it only when `speculative` is set).
     */
    UNXPEC_SPEC_STATE SeqNum installer = 0;
    /** Cycle at which the fill actually lands in the array. */
    Cycle fillCycle = 0;
    bool valid = false;
    bool dirty = false;
    /**
     * Installed by a speculative (not yet committed) load. CleanupSpec
     * must invalidate such lines when the installer is squashed; the
     * bit is cleared when the installer commits.
     */
    UNXPEC_SPEC_STATE bool speculative = false;
    /** Coherence state (Exclusive on a clean fill, Modified on write). */
    UNXPEC_SPEC_STATE CohState coh = CohState::Invalid;
    /** A cross-core sharer asked for this line while it was
     *  speculative; the M/E->S downgrade is applied at commit. */
    UNXPEC_SPEC_STATE bool pendingDowngrade = false;

    bool operator==(const CacheLine &) const = default;

    UNXPEC_TRANSITION("reset")
    void
    reset()
    {
        installer = 0;
        fillCycle = 0;
        valid = dirty = speculative = false;
        coh = CohState::Invalid;
        pendingDowngrade = false;
    }
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_CACHE_LINE_HH
