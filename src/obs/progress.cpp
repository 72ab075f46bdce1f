#include "obs/progress.h"

#include <chrono>

#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace darwin::obs {

ProgressReporter::ProgressReporter(const MetricsRegistry& registry,
                                   ProgressOptions options)
    : registry_(registry), options_(std::move(options))
{
}

ProgressReporter::~ProgressReporter()
{
    stop();
}

void
ProgressReporter::start()
{
    if (options_.interval_seconds <= 0.0 || thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = false;
    }
    thread_ = std::thread([this] { loop(); });
}

void
ProgressReporter::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    stop_cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
ProgressReporter::loop()
{
    Timer run_timer;
    Timer interval_timer;
    std::uint64_t last_done = 0;
    const auto interval = std::chrono::duration<double>(
        options_.interval_seconds);
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (stop_cv_.wait_for(lock, interval,
                                  [this] { return stopping_; }))
                break;
        }
        heartbeats_fired_ = true;
        report(run_timer.seconds(), last_done, interval_timer.seconds());
        interval_timer.reset();
        if (const Counter* done =
                registry_.find_counter(options_.done_counter))
            last_done = done->value();
    }
    // Final summary so interrupted runs still record their throughput.
    if (heartbeats_fired_)
        report(run_timer.seconds(), last_done, interval_timer.seconds());
}

void
ProgressReporter::report(double elapsed_seconds, std::uint64_t last_done,
                         double since_last_seconds)
{
    std::uint64_t done = 0;
    if (const Counter* counter =
            registry_.find_counter(options_.done_counter))
        done = counter->value();

    std::vector<LogField> fields;
    fields.push_back({"elapsed_s", strprintf("%.1f", elapsed_seconds)});
    std::string headline = strprintf("%s: %llu done",
                                     options_.label.c_str(),
                                     static_cast<unsigned long long>(done));
    if (const Counter* total =
            registry_.find_counter(options_.total_counter)) {
        headline = strprintf("%s: %llu/%llu done", options_.label.c_str(),
                             static_cast<unsigned long long>(done),
                             static_cast<unsigned long long>(
                                 total->value()));
        fields.push_back({"total", std::to_string(total->value())});
    }
    fields.push_back({"done", std::to_string(done)});
    if (since_last_seconds > 0.0 && done >= last_done) {
        fields.push_back(
            {"rate_per_s",
             strprintf("%.2f", static_cast<double>(done - last_done) /
                                   since_last_seconds)});
    }
    inform(headline, std::move(fields));
}

}  // namespace darwin::obs
