// speccheck fixture body: every speculative write has a matching
// restore in the rollback closure, for every mode.
#include "mini.hh"

namespace unxpec {

void
MiniCache::install(unsigned way)
{
    lines_[way].speculative = true;
    lines_[way].installer = way;
    mask_ |= 1u << way;
}

void
MiniCache::squash(unsigned way)
{
    lines_[way].speculative = false;
    lines_[way].installer = 0;
    mask_ &= ~(1u << way);
}

bool
MiniCache::anySpeculative() const
{
    return count(mask_) != 0 && lowest(mask_) < 4;
}

unsigned
MiniCache::lowest(unsigned mask) const
{
    return mask == 0 ? 4 : static_cast<unsigned>(__builtin_ctz(mask));
}

unsigned
MiniCache::count(const unsigned &mask)
{
    return static_cast<unsigned>(__builtin_popcount(mask));
}

}  // namespace unxpec
