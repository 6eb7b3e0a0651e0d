// Fixed-size worker-thread pool and a chunked parallel-for driver.
//
// Two dispatch shapes run on it.  The exhaustive walker and the hill
// climb split their logical unit range (mixed-radix leaves, restarts)
// into contiguous, equally sized chunks, one task per chunk, and
// reduce them in chunk order; the walker's incremental PACE
// checkpoints rely on each worker walking one contiguous leaf range.
// The two-ASIC pair search instead runs one task per worker
// (parallel_chunks over [0, n_workers)), and each task claims a0 rows
// from a shared atomic counter, so a worker that finishes early takes
// more rows; its reduce breaks exact ties by pair index, not by task
// order.  The pool is the reusable substrate (condition-variable task
// queue, the classic idiom); parallel_chunks is the dispatch all three
// call.
//
// Error propagation is deterministic: each submitted task carries a
// sequence number, workers record the exception from the
// lowest-numbered failing task, and wait_idle() rethrows it on the
// submitting thread.  Since parallel_chunks submits chunks in index
// order, "lowest sequence" means "lowest chunk index" — the same
// winner no matter how the OS schedules the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace lycos::util {

class Cancel_token;

/// A fixed set of worker threads draining a task queue.
class Thread_pool {
public:
    /// Start `n_threads` workers (0 selects default_concurrency()).
    explicit Thread_pool(std::size_t n_threads = 0);

    /// Joins all workers; pending tasks are still executed (errors
    /// from them are recorded but have no wait_idle() left to rethrow
    /// them — call wait_idle() before destruction if you care).
    ~Thread_pool();

    Thread_pool(const Thread_pool&) = delete;
    Thread_pool& operator=(const Thread_pool&) = delete;

    std::size_t size() const { return threads_.size(); }

    /// Enqueue a task for execution on some worker.  An exception
    /// escaping the task is captured (first by submission order) and
    /// rethrown by the next wait_idle().  Throws std::runtime_error
    /// once destruction has begun — a task enqueued that late may
    /// never run (workers that found the queue empty have already
    /// exited), and a silent never-runs task would hang wait_idle()
    /// in a long-lived serving layer.
    void submit(std::function<void()> task);

    /// Block until every submitted task has finished.  If any task
    /// threw, rethrows the exception from the earliest-submitted
    /// failing task on this thread and clears the error state.
    void wait_idle();

    /// Number of hardware threads, at least 1.
    static std::size_t default_concurrency();

private:
    struct Task {
        std::uint64_t seq;
        std::function<void()> fn;
    };

    void worker_loop();

    std::vector<std::thread> threads_;
    std::queue<Task> tasks_;
    mutable std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable idle_;
    std::size_t in_flight_ = 0;  ///< tasks currently executing
    std::uint64_t next_seq_ = 0;
    std::uint64_t error_seq_ = 0;  ///< seq of first_error_ when set
    std::exception_ptr first_error_;
    bool stopping_ = false;
};

/// Split [0, n) into `n_chunks` contiguous ranges (sizes differing by
/// at most one) and run fn(chunk_index, begin, end) for each on the
/// pool.  Blocks until all chunks are done; if any chunk throws, the
/// exception from the lowest-indexed throwing chunk is rethrown in
/// the caller.  When `cancel` is given, chunks whose task starts
/// after the token tripped are skipped entirely; the return value is
/// the number of chunks skipped this way (0 otherwise).
std::size_t parallel_chunks(
    Thread_pool& pool, long long n, std::size_t n_chunks,
    const std::function<void(std::size_t, long long, long long)>& fn,
    const Cancel_token* cancel = nullptr);

}  // namespace lycos::util
