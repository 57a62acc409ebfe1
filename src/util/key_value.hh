/**
 * @file
 * The reader of ccsim's `key = value` documents (machine config
 * files, selection tables) and the text helpers their parsers share.
 *
 * A document is read line by line: `#` starts a comment, blank lines
 * are skipped, and every other line is one setting.  The key ends at
 * the first `=` not preceded by `>`, so a selection rule's `p>=2`
 * stays in its value; no config key contains `>`.  A malformed line
 * is a ConfigError whose message starts "<doc> line N:".
 */

#ifndef CCSIM_UTIL_KEY_VALUE_HH
#define CCSIM_UTIL_KEY_VALUE_HH

#include <istream>
#include <string>

namespace ccsim {

/** fatal() analogue raising ConfigError (component "config", exit
 *  kConfigExit), so config mistakes are distinguishable from generic
 *  user errors. */
[[noreturn]] void configFatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** @p s without leading and trailing white space. */
std::string trim(const std::string &s);

/** @p s in ASCII lower case: names (presets, fixed tables, flags)
 *  match case-insensitively through this one fold. */
std::string lowered(std::string s);

/**
 * Split document line @p line (line @p lineno of a @p doc document)
 * into a trimmed @p key and @p value.  False for a blank or comment
 * line; ConfigError for a line with no `=` or an empty side.
 */
bool splitSetting(const std::string &line, const char *doc, int lineno,
                  std::string &key, std::string &value);

/** Call @p setting(key, value, lineno) for every setting of the
 *  @p doc document on @p is, in order (see file comment). */
template <class F>
void
forEachSetting(std::istream &is, const char *doc, F &&setting)
{
    std::string line, key, value;
    for (int lineno = 1; std::getline(is, line); ++lineno)
        if (splitSetting(line, doc, lineno, key, value))
            setting(key, value, lineno);
}

} // namespace ccsim

#endif // CCSIM_UTIL_KEY_VALUE_HH
