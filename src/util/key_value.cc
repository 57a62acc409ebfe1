#include "util/key_value.hh"

#include <cctype>
#include <cstdarg>

#include "util/logging.hh"

namespace ccsim {

void
configFatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrFormat(fmt, ap);
    va_end(ap);
    raiseError(ConfigError(msg));
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
lowered(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

bool
splitSetting(const std::string &line, const char *doc, int lineno,
             std::string &key, std::string &value)
{
    const std::string s = trim(line.substr(0, line.find('#')));
    if (s.empty())
        return false;
    auto eq = s.find('=');
    while (eq != std::string::npos && eq > 0 && s[eq - 1] == '>')
        eq = s.find('=', eq + 1);
    if (eq == std::string::npos)
        configFatal("%s line %d: expected 'key = value', got '%s'", doc,
                    lineno, line.c_str());
    key = trim(s.substr(0, eq));
    value = trim(s.substr(eq + 1));
    if (key.empty() || value.empty())
        configFatal("%s line %d: empty key or value", doc, lineno);
    return true;
}

} // namespace ccsim
