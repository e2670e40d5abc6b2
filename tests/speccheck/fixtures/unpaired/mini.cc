// speccheck fixture body: poke() is the contract violation.
#include "mini.hh"

namespace unxpec {

void
MiniCache::install(unsigned way)
{
    lines_[way].speculative = true;
}

void
MiniCache::squash(unsigned way)
{
    lines_[way].speculative = false;
}

void
MiniCache::poke(unsigned way)
{
    lines_[way].speculative = true;  // unpaired: not under a transition
}

void
MiniCache::bump(unsigned way)
{
    setBit(mask_, way);  // unpaired: written through a reference
    clearIn(mask_);      // unpaired: a const member, but a reference
}

void
MiniCache::setBit(unsigned &mask, unsigned way)
{
    mask |= 1u << way;
}

void
MiniCache::clearIn(unsigned &mask) const
{
    mask = 0;
}

}  // namespace unxpec
