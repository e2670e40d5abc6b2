/**
 * @file
 * gem5-style status reporting: panic/fatal for errors, warn for
 * suspect conditions. panic() flags simulator bugs (aborts); fatal()
 * flags user errors such as bad configuration (exits cleanly with an
 * error code); warn() prints and carries on.
 */

#ifndef UNXPEC_SIM_LOG_HH
#define UNXPEC_SIM_LOG_HH

#include <sstream>
#include <string>

namespace unxpec {

namespace detail {
[[noreturn]] void panicImpl(const std::string &msg);
[[noreturn]] void fatalImpl(const std::string &msg);
void warnImpl(const std::string &msg);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}
} // namespace detail

/** Abort on an internal simulator bug. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::format(std::forward<Args>(args)...));
}

/** Exit on an unrecoverable user/configuration error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::format(std::forward<Args>(args)...));
}

/** Warn about suspect but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::format(std::forward<Args>(args)...));
}

} // namespace unxpec

#endif // UNXPEC_SIM_LOG_HH
