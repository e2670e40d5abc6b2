#include "sim/log.hh"

#include <cstdlib>
#include <iostream>

namespace unxpec {
namespace detail {

void
panicImpl(const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << "\n";
}

} // namespace detail
} // namespace unxpec
