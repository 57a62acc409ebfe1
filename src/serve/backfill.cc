#include "serve/backfill.hh"

#include <chrono>

#include "serve/protocol.hh" // ServeError
#include "util/error.hh"

namespace ccsim::serve {

BackfillQueue::BackfillQueue(int jobs) : runner_(jobs)
{
    collector_ = std::thread([this] { collectorLoop(); });
}

BackfillQueue::~BackfillQueue()
{
    stop();
}

bool
BackfillQueue::trySubmit(const BackfillJob &job,
                         std::uint64_t &ticket)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_keys_.find(job.key);
    if (it != live_keys_.end()) {
        // Coalescing adds a ticket to an existing job — no queue
        // growth, so the bound never sheds these.
        ticket = next_ticket_++;
        ++submitted_;
        ++coalesced_;
        open_tickets_.insert(ticket);
        it->second->tickets.push_back(ticket);
        return true;
    }
    if (stopping_ ||
        (max_pending_ > 0 && pending_.size() >= max_pending_)) {
        ++shed_;
        return false;
    }
    ticket = next_ticket_++;
    ++submitted_;
    open_tickets_.insert(ticket);
    auto j = std::make_shared<Job>();
    j->spec = job;
    j->tickets.push_back(ticket);
    live_keys_.emplace(job.key, j);
    pending_.push_back(std::move(j));
    work_cv_.notify_one();
    return true;
}

void
BackfillQueue::prefetch(const BackfillJob &job)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || live_keys_.count(job.key))
        return;
    if (max_pending_ > 0 && pending_.size() >= max_pending_)
        return; // opportunistic work never displaces the bound
    auto j = std::make_shared<Job>();
    j->spec = job; // no tickets: completion fills only the memo
    live_keys_.emplace(job.key, j);
    pending_.push_back(std::move(j));
    work_cv_.notify_one();
}

BackfillResult
BackfillQueue::wait(std::uint64_t ticket)
{
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock,
                  [&] { return results_.count(ticket) != 0; });
    BackfillResult r = results_[ticket];
    results_.erase(ticket);
    return r;
}

std::optional<BackfillResult>
BackfillQueue::waitFor(std::uint64_t ticket, int timeout_ms)
{
    if (timeout_ms <= 0)
        return wait(ticket);
    std::unique_lock<std::mutex> lock(mu_);
    bool landed = done_cv_.wait_for(
        lock, std::chrono::milliseconds(timeout_ms),
        [&] { return results_.count(ticket) != 0; });
    if (landed) {
        BackfillResult r = results_[ticket];
        results_.erase(ticket);
        return r;
    }
    // Deadline missed: abandon the ticket.  The simulation still
    // completes (and still feeds the memo); publish drops the
    // per-ticket result instead of retaining it forever.
    abandoned_.insert(ticket);
    return std::nullopt;
}

BackfillResult
BackfillQueue::poll(std::uint64_t ticket)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = results_.find(ticket);
    if (it != results_.end()) {
        BackfillResult r = it->second;
        results_.erase(it);
        return r;
    }
    if (open_tickets_.count(ticket))
        return {}; // still pending / in flight
    throw ServeError("unknown ticket " + std::to_string(ticket) +
                         " (never issued, or already collected)");
}

std::size_t
BackfillQueue::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
}

void
BackfillQueue::setMaxPending(std::size_t max)
{
    std::lock_guard<std::mutex> lock(mu_);
    max_pending_ = max;
}

std::size_t
BackfillQueue::maxPending() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return max_pending_;
}

std::uint64_t
BackfillQueue::shed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shed_;
}

std::uint64_t
BackfillQueue::submitted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return submitted_;
}

std::uint64_t
BackfillQueue::coalesced() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return coalesced_;
}

std::uint64_t
BackfillQueue::completed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
}

std::uint64_t
BackfillQueue::failed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
}

std::uint64_t
BackfillQueue::batches() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
}

int
BackfillQueue::jobs() const
{
    return runner_.jobs();
}

void
BackfillQueue::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
        return pending_.empty() && inflight_ == 0;
    });
}

void
BackfillQueue::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_ && !collector_.joinable())
            return;
        stopping_ = true;
    }
    work_cv_.notify_all();
    if (collector_.joinable())
        collector_.join();
}

void
BackfillQueue::collectorLoop()
{
    for (;;) {
        std::vector<std::shared_ptr<Job>> batch;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [&] {
                return stopping_ || !pending_.empty();
            });
            if (pending_.empty()) {
                // stopping_ with nothing queued: drained, exit.
                return;
            }
            batch.assign(pending_.begin(), pending_.end());
            pending_.clear();
            inflight_ = batch.size();
        }
        runBatch(std::move(batch));
    }
}

void
BackfillQueue::runBatch(std::vector<std::shared_ptr<Job>> batch)
{
    std::vector<BackfillResult> results(batch.size());
    runner_.runTasks(batch.size(), [&](std::size_t i) {
        const BackfillJob &job = batch[i]->spec;
        BackfillResult &r = results[i];
        r.done = true;
        try {
            r.meas = harness::measureCollective(
                *job.cfg, job.p, job.op, job.m, job.algo,
                job.options);
        } catch (const Error &e) {
            r.failed = true;
            r.component = e.component();
            r.message = e.what();
            r.exit_code = e.exitCode();
        } catch (const std::exception &e) {
            r.failed = true;
            r.component = "serve";
            r.message = e.what();
            r.exit_code = kUserExit;
        }
    });

    {
        std::lock_guard<std::mutex> lock(mu_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (results[i].failed)
                ++failed_;
            else
                ++completed_;
            for (std::uint64_t t : batch[i]->tickets) {
                open_tickets_.erase(t);
                if (abandoned_.erase(t))
                    continue; // waiter timed out: drop, don't retain
                results_[t] = results[i];
            }
            live_keys_.erase(batch[i]->spec.key);
        }
        ++batches_;
        inflight_ = 0;
    }
    done_cv_.notify_all();
}

} // namespace ccsim::serve
