// speccheck fixture: host time read in simulator code (wall-clock).
#include <chrono>

namespace unxpec {

long
stamp()
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace unxpec
