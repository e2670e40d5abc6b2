// speccheck fixture body: MiniCache::squash calls drop() three ways.
// The chained shadow().drop() has a receiver the frontend cannot type
// and two modeled candidates (Shadow::drop, Ledger::drop): the one
// warning. ledger_.drop() has a typed receiver and util::drop() a
// namespace qualifier; both resolve to one function.
#include "mini.hh"

namespace unxpec {

void
MiniCache::install(unsigned way)
{
    mask_ |= 1u << way;
}

void
MiniCache::squash(unsigned way)
{
    mask_ &= ~(1u << way);
    shadow().drop(way);
    ledger_.drop(way);
    util::drop(way);
}

}  // namespace unxpec
