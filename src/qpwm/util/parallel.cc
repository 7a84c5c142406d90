#include "qpwm/util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "qpwm/util/thread_annotations.h"

namespace qpwm {
namespace {

size_t DefaultThreads() {
  if (const char* env = std::getenv("QPWM_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<size_t>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// A plain generation-signalled pool: no work stealing, no per-task queues.
// Each Run() publishes one job (a chunk counter + body); workers and the
// caller claim chunk indices from the shared atomic counter until drained.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool* pool = new ThreadPool();  // leaked: workers may outlive main
    return *pool;
  }

  // Total threads participating in a Run (workers + caller).
  size_t threads() {
    std::lock_guard<std::mutex> lock(resize_mu_);
    return workers_.size() + 1;
  }

  void Resize(size_t total_threads) {
    std::lock_guard<std::mutex> lock(resize_mu_);
    const size_t want = total_threads == 0 ? 0 : total_threads - 1;
    if (want == workers_.size()) return;
    Shutdown();
    uint64_t generation = 0;
    {
      std::lock_guard<std::mutex> job_lock(mu_);
      stop_ = false;
      generation = generation_;
    }
    // A new worker starts at the current generation: the jobs before it are
    // finished, and waking for one would drain a cleared body_.
    workers_.reserve(want);
    for (size_t i = 0; i < want; ++i) {
      workers_.emplace_back([this, generation] { WorkerLoop(generation); });
    }
  }

  void Run(size_t num_chunks, const std::function<void(size_t)>& body) {
    std::lock_guard<std::mutex> resize_lock(resize_mu_);
    std::exception_ptr error;
    std::mutex error_mu;
    const std::function<void(size_t)> guarded = [&](size_t chunk) {
      try {
        body(chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    };

    if (workers_.empty()) {
      for (size_t c = 0; c < num_chunks; ++c) guarded(c);
    } else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        body_ = &guarded;
        next_.store(0, std::memory_order_relaxed);
        num_chunks_ = num_chunks;
        active_ = workers_.size();
        ++generation_;
      }
      cv_work_.notify_all();
      Drain(guarded);
      std::unique_lock<std::mutex> lock(mu_);
      cv_done_.wait(lock, [this] { return active_ == 0; });
      body_ = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  ThreadPool() = default;

  void Shutdown() QPWM_REQUIRES(resize_mu_) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
  }

  void Drain(const std::function<void(size_t)>& body);

  void WorkerLoop(uint64_t seen) {
    for (;;) {
      const std::function<void(size_t)>* body;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        body = body_;
      }
      Drain(*body);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--active_ == 0) cv_done_.notify_all();
      }
    }
  }

  // Both mutexes stay std::mutex: cv_work_/cv_done_ are std::condition_variable
  // and need the standard type. The QPWM_GUARDED_BY annotations still document
  // (and lint-enforce) the locking discipline.
  std::mutex resize_mu_;  // serializes Resize/Run; threads() is cheap
  std::vector<std::thread> workers_ QPWM_GUARDED_BY(resize_mu_);

  std::mutex mu_;
  std::condition_variable cv_work_, cv_done_;
  uint64_t generation_ QPWM_GUARDED_BY(mu_) = 0;
  const std::function<void(size_t)>* body_ QPWM_GUARDED_BY(mu_) = nullptr;
  std::atomic<size_t> next_{0};
  size_t num_chunks_ QPWM_GUARDED_BY(mu_) = 0;
  size_t active_ QPWM_GUARDED_BY(mu_) = 0;
  bool stop_ QPWM_GUARDED_BY(mu_) = false;
};

// Set while a thread is executing chunk bodies; nested parallel calls from
// inside a body run inline instead of deadlocking on the pool.
thread_local bool t_in_parallel = false;

void ThreadPool::Drain(const std::function<void(size_t)>& body) {
  const bool was = t_in_parallel;
  t_in_parallel = true;
  for (;;) {
    const size_t c = next_.fetch_add(1, std::memory_order_relaxed);
    // qpwm-lint: allow(lock-discipline) -- num_chunks_ is frozen for the generation before cv_work_ wakes anyone; workers read it lock-free by design
    if (c >= num_chunks_) break;
    body(c);
  }
  t_in_parallel = was;
}

std::atomic<size_t> g_configured{0};  // 0 = unresolved
std::once_flag g_pool_built;

size_t ConfiguredThreads() {
  size_t n = g_configured.load(std::memory_order_acquire);
  if (n == 0) {
    n = DefaultThreads();
    size_t expected = 0;
    if (!g_configured.compare_exchange_strong(expected, n)) n = expected;
  }
  return n;
}

// Builds the pool on first parallel call (lazy: serial users never spawn).
ThreadPool& Pool() {
  ThreadPool& pool = ThreadPool::Global();
  std::call_once(g_pool_built, [&] { pool.Resize(ConfiguredThreads()); });
  return pool;
}

}  // namespace

size_t ParallelThreads() { return ConfiguredThreads(); }

void SetParallelThreads(size_t n) {
  const size_t resolved = n == 0 ? DefaultThreads() : n;
  g_configured.store(resolved, std::memory_order_release);
  ThreadPool::Global().Resize(resolved);
}

namespace internal {

void RunChunked(size_t num_chunks, const std::function<void(size_t)>& body) {
  if (num_chunks == 0) return;
  if (num_chunks == 1 || t_in_parallel || ConfiguredThreads() == 1) {
    for (size_t c = 0; c < num_chunks; ++c) body(c);
    return;
  }
  Pool().Run(num_chunks, body);
}

BlockPartition::BlockPartition(size_t n_items) : n(n_items) {
  const size_t threads = ConfiguredThreads();
  // 8x oversubscription smooths uneven per-index cost without work stealing;
  // the block layout is a pure function of (n, configured threads).
  blocks = threads == 1 ? 1 : std::min(n, threads * 8);
  if (blocks == 0) blocks = 1;
}

}  // namespace internal
}  // namespace qpwm
