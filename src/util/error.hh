/**
 * @file
 * ccsim::Error — the root of every exception the library raises.
 *
 * Each subsystem's typed exception (FatalError/PanicError/
 * ConfigError here and in util/logging.hh, fault::FaultError,
 * replay::TraceError) derives from this base and carries:
 *
 *  - component(): which layer raised it ("fault", "replay", ...);
 *  - exitCode():  the process exit status the CLI maps it to, so
 *    scripted callers can tell a bad flag from a lost message from a
 *    malformed trace without parsing stderr;
 *  - what():      the plain message text, unchanged from what
 *    fatal() would have printed (error-path tests substring-match
 *    it, and context such as "file:line: rank N:" is embedded by the
 *    thrower, which is the only layer that knows it).
 *
 * formatted() is the CLI's one-line rendering, "ccsim <component>
 * error: <message>".  Tools catch `const ccsim::Error &` once at the
 * top of main and exit with e.exitCode(); see tools/ccsim_cli.cc.
 *
 * Exit-code map: 1 user error (FatalError), 3 trace parse
 * (TraceError), 4 fault-layer failure (FaultError), 5 machine config
 * (ConfigError), 70 internal invariant (PanicError, EX_SOFTWARE).
 */

#ifndef CCSIM_UTIL_ERROR_HH
#define CCSIM_UTIL_ERROR_HH

#include <stdexcept>
#include <string>

namespace ccsim {

/** Process exit codes, one per error family (see file comment). */
inline constexpr int kUserExit = 1;   //!< FatalError
inline constexpr int kTraceExit = 3;  //!< replay::TraceError
inline constexpr int kFaultExit = 4;  //!< fault::FaultError
inline constexpr int kConfigExit = 5; //!< ConfigError
inline constexpr int kPanicExit = 70; //!< PanicError (EX_SOFTWARE)

/** Base of all ccsim exceptions; see file comment. */
class Error : public std::runtime_error
{
  public:
    Error(std::string component, const std::string &message,
          int exit_code)
        : std::runtime_error(message), component_(std::move(component)),
          exit_code_(exit_code)
    {
    }

    /** Layer that raised the error ("fault", "replay", "config"...). */
    const std::string &component() const { return component_; }

    /** Process exit status the CLI maps this error to. */
    int exitCode() const { return exit_code_; }

    /** "ccsim <component> error: <what()>". */
    std::string formatted() const;

  private:
    std::string component_;
    int exit_code_;
};

/** Raised by fatal() when throwOnError(true) is active: the user
 *  asked for something impossible.  Exit code 1. */
struct FatalError : Error
{
    explicit FatalError(const std::string &message)
        : Error("fatal", message, kUserExit)
    {
    }

  protected:
    /** For subclasses (TraceError, ConfigError) that refine the
     *  component and exit code but must stay catchable as
     *  FatalError. */
    FatalError(std::string component, const std::string &message,
               int exit_code)
        : Error(std::move(component), message, exit_code)
    {
    }
};

/**
 * A bad machine/topology configuration: unknown preset/key/
 * algorithm/topology family, a malformed value or spec string, or an
 * unreadable config file.  Derives from FatalError (a user error,
 * catchable as one) but refines the component to "config" and the
 * CLI exit code to kConfigExit.  Lives at the util layer so both the
 * machine config loader and the net topology factory can raise it.
 */
struct ConfigError : FatalError
{
    explicit ConfigError(const std::string &message)
        : FatalError("config", message, kConfigExit)
    {
    }
};

/** Raised by panic() when throwOnError(true) is active: a ccsim
 *  bug.  Exit code 70 (EX_SOFTWARE). */
struct PanicError : Error
{
    explicit PanicError(const std::string &message)
        : Error("panic", message, kPanicExit)
    {
    }
};

} // namespace ccsim

#endif // CCSIM_UTIL_ERROR_HH
