// speccheck fixture: ambient PRNGs instead of the seeded unxpec::Rng
// (unseeded-randomness).
#include <cstdlib>
#include <random>

namespace unxpec {

int
draw()
{
    std::mt19937 gen(7);
    std::uniform_int_distribution<int> pick(0, 9);
    return pick(gen) + rand();
}

}  // namespace unxpec
