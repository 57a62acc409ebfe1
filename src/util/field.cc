#include "util/field.hh"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace ccsim {

bool
parseWhole(std::string_view text, long long &out)
{
    // std::from_chars takes neither white space nor a '+'; strip what
    // strtoll skips, and a '+' only where a digit follows it.
    const std::size_t start = text.find_first_not_of(" \t\n\v\f\r");
    if (start == std::string_view::npos)
        return false;
    text.remove_prefix(start);
    if (text.front() == '+') {
        text.remove_prefix(1);
        if (text.empty() || text.front() == '-')
            return false;
    }
    const char *end = text.data() + text.size();
    long long v = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || stop != end)
        return false;
    out = v;
    return true;
}

bool
parseWhole(const std::string &text, double &out)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(text, &pos);
        if (pos != text.size() || !std::isfinite(v))
            return false;
        out = v;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace ccsim
