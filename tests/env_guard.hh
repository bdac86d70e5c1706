/**
 * @file
 * RAII environment-variable override for tests that pin an OCCSIM_*
 * knob (OCCSIM_SHARD, ...) for one scope.
 */

#ifndef OCCSIM_TESTS_ENV_GUARD_HH
#define OCCSIM_TESTS_ENV_GUARD_HH

#include <cstdlib>
#include <string>

/** Sets @p name to @p value (nullptr unsets it) for the guard's
 *  lifetime, then restores the prior value. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            hadOld_ = true;
            old_ = old;
        }
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~EnvGuard()
    {
        if (hadOld_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    const char *name_;
    bool hadOld_ = false;
    std::string old_;
};

#endif // OCCSIM_TESTS_ENV_GUARD_HH
