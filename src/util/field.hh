/**
 * @file
 * The vocabulary of the struct field walks (fault::forEachField,
 * machine::forEachField): what a walk tells its callback about one
 * persisted field, and the value parser the config loader and the
 * `--faults` parser share.
 *
 * A walk is the one list of a struct's persisted fields.  It calls
 * its callback as `f(const Field &, T &storage)` once per field, in
 * document order, with the field's real type, so a consumer that
 * ignores the names (the point key) inlines to one call per field.
 */

#ifndef CCSIM_UTIL_FIELD_HH
#define CCSIM_UTIL_FIELD_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/units.hh"

namespace ccsim {

/** The unit a Time field is spelled in; Plain for everything else. */
enum class Unit : std::uint8_t
{
    Plain,  //!< the value as stored (integers, doubles, names)
    Micros, //!< a Time written as fractional microseconds
    Nanos,  //!< a Time written as fractional nanoseconds
};

/** One persisted field, as a field walk reports it. */
struct Field
{
    /** Block of a scoped key (`<scope>.<key>`): "hierarchy", "fault"
     *  or a collective key; empty for a top-level key. */
    std::string_view scope;

    /** Key within the block.  Empty on a gate: before a block that a
     *  document holds only where it applies, a writing walk passes
     *  whether the block follows. */
    std::string_view key;

    std::string_view flag;   //!< `--faults` name (fault fields only)
    Unit unit = Unit::Plain; //!< spelling of a Time value
    bool omitted = false;    //!< a saved document leaves it out
};

/** std::stoll / std::stod over the whole of @p text: false when it
 *  is malformed, out of range, not finite (`nan`, `inf`) or has
 *  trailing characters (@p out is then unchanged).  The one number
 *  parser of every text grammar. */
bool parseWhole(const std::string &text, long long &out);
bool parseWhole(const std::string &text, double &out);

/**
 * Parse @p text into @p out, spelled in @p unit.  Returns nullptr on
 * success, else the kind of value that was expected ("numeric",
 * "integer" or "boolean") for the caller's error message; @p out is
 * then unchanged.  A time whose picosecond count does not fit in Time
 * is a bad numeric value.  Integers parse as `long long` and convert,
 * so a negative seed wraps as it always has.
 */
template <class T>
const char *
readField(const std::string &text, T &out, Unit unit)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = text;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (text == "true" || text == "1" || text == "yes")
            out = true;
        else if (text == "false" || text == "0" || text == "no")
            out = false;
        else
            return "boolean";
    } else if constexpr (std::is_floating_point_v<T>) {
        if (!parseWhole(text, out))
            return "numeric";
    } else if (unit != Unit::Plain) {
        double d = 0;
        const double ps_per_unit = unit == Unit::Micros ? 1e6 : 1e3;
        if (!parseWhole(text, d) || std::fabs(d * ps_per_unit) >= 0x1p63)
            return "numeric";
        out = unit == Unit::Micros ? microseconds(d) : nanoseconds(d);
    } else {
        long long v = 0;
        if (!parseWhole(text, v))
            return "integer";
        out = static_cast<T>(v);
    }
    return nullptr;
}

} // namespace ccsim

#endif // CCSIM_UTIL_FIELD_HH
