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
 * HPCA'18) cannot observe speculative activity.
 */
enum class CohState : std::uint8_t
{
    Modified,
    Exclusive,
    Shared,
    Invalid,
};

/** State of one cache way. */
struct CacheLine
{
    /** Line address (byte address with offset bits cleared). */
    Addr lineAddr = kAddrInvalid;
    bool valid = false;
    bool dirty = false;
    /**
     * Installed by a speculative (not yet committed) load. CleanupSpec
     * must invalidate such lines when the installer is squashed; the
     * bit is cleared when the installer commits.
     */
    UNXPEC_SPEC_STATE bool speculative = false;
    /** Sequence number of the installing load while speculative. */
    UNXPEC_SPEC_STATE SeqNum installer = kSeqNone;
    /** Cycle at which the fill actually lands in the array. */
    Cycle fillCycle = 0;
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
        lineAddr = kAddrInvalid;
        valid = dirty = speculative = false;
        installer = kSeqNone;
        fillCycle = 0;
        coh = CohState::Invalid;
        pendingDowngrade = false;
    }
};

} // namespace unxpec

#endif // UNXPEC_MEMORY_CACHE_LINE_HH
