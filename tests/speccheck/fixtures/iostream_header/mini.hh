// speccheck fixture: a header that includes <iostream>
// (iostream-in-header).
#ifndef UNXPEC_IOSTREAM_HEADER_MINI_HH
#define UNXPEC_IOSTREAM_HEADER_MINI_HH

#include <iostream>

namespace unxpec {

inline void
greet()
{
    std::cout << "mini\n";
}

}  // namespace unxpec

#endif // UNXPEC_IOSTREAM_HEADER_MINI_HH
