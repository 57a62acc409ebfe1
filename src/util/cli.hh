/**
 * @file
 * cli::Options — the one command-line schema + parser every ccsim
 * binary uses (each `ccsim` subcommand and every bench).
 *
 * A binary *declares* its flags, then parses:
 *
 * @code
 *     cli::Options o("ccsim measure");
 *     o.flag("paper", "use the paper's full 22-run procedure");
 *     o.value("machine", "preset or config name", "NAME");
 *     o.parse(argc, argv, 2);          // 2: skip the subcommand
 *     if (o.has("paper")) ...
 *     int p = o.getInt("p", 32);
 * @endcode
 *
 * Rules, uniform across binaries:
 *
 *  - options are "--name" (value options consume the next argv);
 *  - undeclared options and missing values are fatal(), with the
 *    usage line in the message;
 *  - "--help" is always accepted: prints usage to stdout, exits 0;
 *  - repeated options keep the last occurrence;
 *  - list-valued options are comma-separated, read via getList().
 *
 * This replaces the per-binary parsers that used to live in
 * tools/ccsim_cli.cc and bench/bench_common.cc, so a new global
 * option (e.g. --metrics) is declared in one place per binary and
 * behaves identically everywhere.
 */

#ifndef CCSIM_UTIL_CLI_HH
#define CCSIM_UTIL_CLI_HH

#include <map>
#include <string>
#include <vector>

namespace ccsim::cli {

/** Declarative option schema + parsed values; see file comment. */
class Options
{
  public:
    /** @p prog names the binary (or subcommand) in usage text. */
    explicit Options(std::string prog) : prog_(std::move(prog)) {}

    /** Declare a boolean option ("--name", no value). */
    Options &flag(const std::string &name, const std::string &help);

    /** Declare a valued option ("--name VAL"). */
    Options &value(const std::string &name, const std::string &help,
                   const std::string &placeholder = "VAL");

    /**
     * Parse argv[start..argc).  fatal() on undeclared options or a
     * missing value; handles --help itself (prints usage, exit 0).
     */
    void parse(int argc, char **argv, int start = 1);

    /** True when the option appeared on the command line. */
    bool has(const std::string &name) const;

    /** True when the option was declared on this binary's schema —
     *  for helpers shared across subcommands that only some of them
     *  declare (reading an undeclared option is a panic). */
    bool declares(const std::string &name) const;

    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** fatal() when present but not an integer. */
    long long getInt(const std::string &name, long long fallback) const;

    /** Comma-split value; empty items dropped. */
    std::vector<std::string>
    getList(const std::string &name,
            const std::string &fallback = "") const;

    /** One-line summary + per-option help lines. */
    std::string usage() const;

  private:
    struct Decl
    {
        std::string name;
        std::string help;
        std::string placeholder; // empty: boolean flag
    };

    const Decl *find(const std::string &name) const;
    const Decl &declared(const std::string &name) const;

    std::string prog_;
    std::vector<Decl> decls_; // declaration order, for usage()
    std::map<std::string, std::string> values_;
};

/** Split a comma-separated string; empty items dropped. */
std::vector<std::string> splitList(const std::string &s);

/**
 * The candidate closest to @p given by edit distance
 * (case-insensitive Levenshtein), or "" when nothing is close enough
 * to suggest — a typo plausibly reaches its target within
 * max(2, len/3) edits; anything farther is a different word.  Backs
 * the "did you mean" hints on unknown options (Options::parse) and
 * unknown ccsim subcommands.
 */
std::string closestMatch(const std::string &given,
                         const std::vector<std::string> &candidates);

} // namespace ccsim::cli

#endif // CCSIM_UTIL_CLI_HH
