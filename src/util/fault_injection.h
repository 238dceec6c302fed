#ifndef JURYOPT_UTIL_FAULT_INJECTION_H_
#define JURYOPT_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/stats_registry.h"

namespace jury {

/// \brief Thrown by an armed `JURY_FAULT_POINT` — stands in for the
/// resource failure that site could really hit (allocation, thread
/// spawn, session clone, kernel flush). The API boundary
/// (`PoolPlanContext::Solve`) catches it and converts it to a retryable
/// `ResourceExhausted` status; nothing below that boundary may swallow
/// it, which is exactly what the sweep in tests/fault_injection_test.cc
/// verifies site by site.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at " + site), site_(site) {}
  const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// One registered fault site. Stable address for the process lifetime;
/// the disarmed hot path is one relaxed `fetch_add` plus one relaxed
/// load (and the whole mechanism compiles out unless
/// `JURYOPT_FAULT_INJECTION` is defined — see the macro below).
class FaultSite {
 public:
  explicit FaultSite(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Counts the hit; throws `FaultInjectedError` when armed and this hit
  /// reaches the trigger count. With concurrent hits exactly one thread
  /// observes the trigger value, so an armed site fires at most once.
  void Hit() {
    const std::uint64_t n = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (armed_.load(std::memory_order_relaxed) &&
        n == trigger_.load(std::memory_order_relaxed)) {
      Fire();
    }
  }

 private:
  friend class FaultInjector;
  [[noreturn]] void Fire();

  std::string name_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> trigger_{0};
};

/// \brief Process-wide fault-site registry and arming switchboard.
///
/// Sites self-register the first time control flows through their
/// `JURY_FAULT_POINT` (a function-local static holds the stable
/// `FaultSite*`), so `Sites()` after a representative warm-up run is the
/// authoritative enumeration the sweep test iterates. `Arm(site, k)`
/// schedules one `FaultInjectedError` on the site's k-th hit *from now*;
/// `Disarm()` clears every site. Arming is test-only and mutex-guarded;
/// the solve hot path never takes the lock.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Finds or creates `name`; the returned reference is stable forever.
  FaultSite& RegisterSite(const char* name);

  /// Arms `site`: the `hit`-th hit after this call throws (hit = 1 means
  /// the very next one). Creates the site if it has never been hit, so a
  /// test can arm before the first solve.
  void Arm(const std::string& site, std::uint64_t hit = 1);

  /// Disarms every site (pending triggers are dropped).
  void Disarm();

  /// Names of every site registered so far, sorted.
  std::vector<std::string> Sites() const;

  /// Hits recorded for `site` (0 when unknown).
  std::uint64_t HitCount(const std::string& site) const;

  /// Faults actually thrown over the process lifetime (also exported as
  /// the `fault.injected` stats counter).
  std::uint64_t injected_count() const;

 private:
  FaultInjector() = default;
  FaultSite* FindOrCreate(const std::string& name);

  mutable std::mutex mutex_;
  std::vector<FaultSite*> sites_;  // leaked on purpose: process lifetime
};

/// The `fault.injected` counter. Binaries whose only references to this
/// file would be `JURY_FAULT_POINT` sites (none in Release) call it at
/// static init, so the counter is in the stats schema of every build.
StatsRegistry::Counter& FaultsInjectedCounter();

}  // namespace jury

/// Marks a spot where a real resource failure could surface. Compiled to
/// nothing unless the build defines `JURYOPT_FAULT_INJECTION` (the
/// `JURYOPT_ENABLE_FAULT_INJECTION` CMake option: default ON except in
/// Release builds). The site name must be a string literal, unique per
/// site, dot-pathed by subsystem ("eval.kernel_flush").
#if defined(JURYOPT_FAULT_INJECTION) && JURYOPT_FAULT_INJECTION
#define JURY_FAULT_POINT(site_name)                                     \
  do {                                                                  \
    static ::jury::FaultSite& jury_fault_site_ =                        \
        ::jury::FaultInjector::Global().RegisterSite(site_name);        \
    jury_fault_site_.Hit();                                             \
  } while (false)
#else
#define JURY_FAULT_POINT(site_name) \
  do {                              \
  } while (false)
#endif

#endif  // JURYOPT_UTIL_FAULT_INJECTION_H_
