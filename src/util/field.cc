#include "util/field.hh"

#include <cmath>
#include <stdexcept>

namespace ccsim {

bool
parseWhole(const std::string &text, long long &out)
{
    try {
        std::size_t pos = 0;
        const long long v = std::stoll(text, &pos);
        if (pos != text.size())
            return false;
        out = v;
        return true;
    } catch (const std::exception &) {
        return false;
    }
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
