// Stall watchdog: detects batch runs that have stopped making
// progress and raises a structured health signal.
//
// The engines already report progress at instance granularity
// through one dispatcher, sim::detail::ProgressTicker, shared by the
// ensemble runner and the SPICE sweep. The watchdog taps that flush
// point: each active run registers a StallWatchdog::Run scope, and
// every tick calls heartbeat() as instances complete. A monitor
// thread sweeps the registered runs and, when one has gone
// `stallInterval` without a heartbeat, sets the
// `ark.health.stalled_runs` gauge, bumps the
// `ark.health.stall_events` counter, and emits one rate-limited log
// event per stall episode. The flag clears (and a resumption note is
// logged) as soon as the run beats again; both clear when it ends.
//
// Opt-in and observation-only: the watchdog is disabled by default
// (stallInterval == 0), a disabled watchdog costs one relaxed atomic
// load per Run construction and a null-pointer check per heartbeat,
// and an enabled one never steers execution — bit-identity with the
// watchdog off is regression-tested in telemetry_test.

#pragma once

#include <chrono>
#include <cstddef>
#include <memory>

namespace ark::telemetry {

namespace detail {
struct WatchdogRunState;
}

class StallWatchdog {
public:
  static StallWatchdog &shared();

  // Interval of no progress after which a run counts as stalled.
  // Zero (the default) disables the watchdog and stops its monitor
  // thread; a positive interval starts it.
  void setStallInterval(std::chrono::milliseconds interval);
  std::chrono::milliseconds stallInterval() const;
  bool enabled() const;

  // RAII registration of one active batch run. Default-constructed
  // or constructed while the watchdog is disabled, it is inert.
  class Run {
  public:
    Run() = default;
    // `kind` must be a string literal (the state stores the pointer).
    Run(const char *kind, std::size_t instances);
    ~Run();

    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    // Marks progress. Lock-free: one relaxed store.
    void heartbeat();
    bool active() const { return state_ != nullptr; }

  private:
    std::shared_ptr<detail::WatchdogRunState> state_;
  };

  std::size_t activeRuns() const;
  std::size_t stalledRuns() const;

  // Forces one monitor sweep on the calling thread (tests poll this
  // instead of racing the monitor's own cadence).
  void pollNow();

private:
  StallWatchdog();
  ~StallWatchdog();
  struct Impl;
  Impl *impl_;
};

} // namespace ark::telemetry
