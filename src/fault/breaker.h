/**
 * @file
 * Circuit breaker for degraded serving.
 *
 * The serve daemon watches the rolling budget-trip / injected-fault
 * rate of full-fidelity align requests. When the failure fraction of
 * the last `window` outcomes crosses `trip_ratio` the breaker *opens*:
 * every request is served in degraded mode (fault/degrade.h — narrower
 * band, tighter x-drops, capped seed hits) until `cooldown_seconds`
 * elapse. Then exactly one request runs at full fidelity as a
 * *half-open* probe; its outcome decides whether the breaker closes
 * (healthy again) or re-opens for another cooldown.
 *
 * Degraded outcomes never feed the rolling window — only full-fidelity
 * attempts say anything about whether full fidelity is healthy.
 *
 * All methods take an explicit time point (defaulted to now) so tests
 * drive the state machine deterministically without sleeping.
 */
#ifndef DARWIN_FAULT_BREAKER_H
#define DARWIN_FAULT_BREAKER_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

namespace darwin::fault {

enum class BreakerState { Closed, HalfOpen, Open };

const char* breaker_state_name(BreakerState state);

/** Trip/recovery knobs. */
struct BreakerOptions {
    /** Rolling window of full-fidelity outcomes. */
    std::size_t window = 32;
    /** Outcomes required before the ratio is trusted. */
    std::size_t min_samples = 8;
    /** Failure fraction of the window that opens the breaker. */
    double trip_ratio = 0.5;
    /** Open -> half-open probe delay. */
    double cooldown_seconds = 5.0;
};

class CircuitBreaker {
  public:
    using Clock = std::chrono::steady_clock;

    explicit CircuitBreaker(BreakerOptions options = {});

    /**
     * Ask before serving: true means serve this request degraded.
     * Open state degrades everything until the cooldown elapses, at
     * which point exactly one caller is handed the full-fidelity
     * half-open probe (returns false for that caller alone).
     */
    bool should_degrade(Clock::time_point now = Clock::now());

    /**
     * Report the outcome of a *full-fidelity* request (degraded
     * outcomes must not be recorded). failure = budget trip or
     * injected fault; protocol errors don't count. A half-open probe
     * outcome resolves the trial: success closes the breaker, failure
     * re-opens it for another cooldown.
     */
    void record(bool failure, Clock::time_point now = Clock::now());

    BreakerState state() const;
    /** Closed->Open (and HalfOpen->Open) transitions so far. */
    std::uint64_t trips() const;

  private:
    void open_locked(Clock::time_point now);

    BreakerOptions options_;
    mutable std::mutex mutex_;
    BreakerState state_ = BreakerState::Closed;
    std::deque<bool> outcomes_;  // true = failure
    std::size_t failures_ = 0;
    Clock::time_point open_until_{};
    bool probe_inflight_ = false;
    std::uint64_t trips_ = 0;
};

}  // namespace darwin::fault

#endif  // DARWIN_FAULT_BREAKER_H
