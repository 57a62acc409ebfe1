/**
 * @file
 * JSON string escaping, shared by every JSON writer: the metrics
 * snapshot, the Chrome trace and the serve wire protocol.
 */

#ifndef CCSIM_UTIL_JSON_HH
#define CCSIM_UTIL_JSON_HH

#include <string>

namespace ccsim {

/** The body of a JSON string holding @p s: quotes, backslashes and
 *  control characters escaped (RFC 8259), everything else as is. */
std::string jsonEscape(const std::string &s);

} // namespace ccsim

#endif // CCSIM_UTIL_JSON_HH
