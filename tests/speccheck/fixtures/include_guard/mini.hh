// speccheck fixture: a header without the canonical
// UNXPEC_INCLUDE_GUARD_MINI_HH guard (include-guard).
#ifndef MINI_HH
#define MINI_HH

namespace unxpec {

inline int
answer()
{
    return 42;
}

}  // namespace unxpec

#endif // MINI_HH
