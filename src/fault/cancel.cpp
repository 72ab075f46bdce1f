#include "fault/cancel.h"

#include "fault/fault_plan.h"
#include "util/strings.h"

namespace darwin::fault {

namespace {

thread_local CancelToken* t_token = nullptr;
thread_local std::size_t t_pair = kNoPair;
thread_local const char* t_stage = nullptr;

std::atomic<bool> g_shutdown{false};

}  // namespace

const char*
cancel_reason_name(CancelReason reason)
{
    switch (reason) {
      case CancelReason::None: return "none";
      case CancelReason::WallTime: return "walltime";
      case CancelReason::Cells: return "cells";
      case CancelReason::HeapBytes: return "heapbytes";
      case CancelReason::External: return "external";
    }
    return "unknown";
}

void
CancelToken::arm(const Budget& budget)
{
    budget_ = budget;
    cells_.store(0, std::memory_order_relaxed);
    heap_bytes_.store(0, std::memory_order_relaxed);
    cancelled_.store(static_cast<int>(CancelReason::None),
                     std::memory_order_relaxed);
    if (budget_.wall_seconds > 0.0) {
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(budget_.wall_seconds));
    }
    armed_.store(true, std::memory_order_release);
}

void
CancelToken::cancel(CancelReason reason)
{
    int expected = static_cast<int>(CancelReason::None);
    cancelled_.compare_exchange_strong(expected, static_cast<int>(reason),
                                       std::memory_order_release);
}

CancelReason
CancelToken::exceeded() const
{
    const int cancelled = cancelled_.load(std::memory_order_acquire);
    if (cancelled != static_cast<int>(CancelReason::None))
        return static_cast<CancelReason>(cancelled);
    if (!armed_.load(std::memory_order_acquire))
        return CancelReason::None;
    if (budget_.max_cells != 0 &&
        cells_.load(std::memory_order_relaxed) > budget_.max_cells)
        return CancelReason::Cells;
    if (budget_.max_heap_bytes != 0 &&
        heap_bytes_.load(std::memory_order_relaxed) > budget_.max_heap_bytes)
        return CancelReason::HeapBytes;
    if (budget_.wall_seconds > 0.0 &&
        std::chrono::steady_clock::now() > deadline_)
        return CancelReason::WallTime;
    return CancelReason::None;
}

void
CancelToken::poll(const char* probe) const
{
    const CancelReason reason = exceeded();
    if (reason == CancelReason::None)
        return;
    std::string detail;
    switch (reason) {
      case CancelReason::WallTime:
        detail = strprintf("wall budget %.3fs exceeded",
                           budget_.wall_seconds);
        break;
      case CancelReason::Cells:
        detail = strprintf("cell budget %llu exceeded (charged %llu)",
                           static_cast<unsigned long long>(
                               budget_.max_cells),
                           static_cast<unsigned long long>(cells_charged()));
        break;
      case CancelReason::HeapBytes:
        detail = strprintf("heap budget %llu bytes exceeded (charged %llu)",
                           static_cast<unsigned long long>(
                               budget_.max_heap_bytes),
                           static_cast<unsigned long long>(
                               heap_bytes_charged()));
        break;
      default:
        detail = "cancelled";
        break;
    }
    throw CancelledError(reason, probe,
                         strprintf("cancelled at %s: %s", probe,
                                   detail.c_str()));
}

ContextScope::ContextScope(CancelToken* token, std::size_t pair_index)
    : prev_token_(t_token), prev_pair_(t_pair), prev_stage_(t_stage)
{
    t_token = token;
    t_pair = pair_index;
    t_stage = nullptr;
}

ContextScope::~ContextScope()
{
    t_token = prev_token_;
    t_pair = prev_pair_;
    t_stage = prev_stage_;
}

CancelToken*
current_token()
{
    return t_token;
}

std::size_t
current_pair()
{
    return t_pair;
}

void
set_stage(const char* stage)
{
    t_stage = stage;
}

void
enter_stage(const char* stage, const char* probe)
{
    set_stage(stage);
    poll(probe);
}

const char*
current_stage()
{
    return t_stage;
}

void
poll(const char* probe)
{
    if (const FaultPlan* plan = active_fault_plan())
        plan->fire(probe, t_pair);
    if (t_token != nullptr)
        t_token->poll(probe);
}

void
charge_cells(std::uint64_t n)
{
    if (t_token != nullptr)
        t_token->charge_cells(n);
}

void
charge_heap_bytes(std::uint64_t n)
{
    if (t_token != nullptr)
        t_token->charge_heap_bytes(n);
}

void
request_shutdown()
{
    // Async-signal-safe: one relaxed atomic store, no allocation/locks.
    g_shutdown.store(true, std::memory_order_relaxed);
}

void
clear_shutdown()
{
    g_shutdown.store(false, std::memory_order_relaxed);
}

bool
shutdown_requested()
{
    return g_shutdown.load(std::memory_order_relaxed);
}

}  // namespace darwin::fault
