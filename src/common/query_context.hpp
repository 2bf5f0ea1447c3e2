// Query-hardening primitives: a wall-clock deadline, a caller-driven
// cancellation token, and a byte-level memory accountant, bundled into one
// QueryContext shared by every thread of a query's execution.
//
// Design
// ------
// The engine arms one QueryContext per Run from EngineOptions::limits; a
// caller may also supply a long-lived token through EngineOptions::query_ctx
// to cancel from another thread, which the per-run context polls as its
// parent. The engine threads a raw pointer through
// RuntimeOptions into the plan executor, the morsel loops, the Datalog
// fixpoint, the UCQ disjunct fan-out, and the Theorem 2 coloring loop. Each
// of those polls Check() at its natural quantum — per operator, per morsel,
// per round, per disjunct, per coloring — so an abort lands within one
// quantum of the trigger at any thread count. All state is atomics: Cancel()
// may be called from any thread while a query runs.
//
// Memory is charged at the storage layer, not at the check sites: every
// RowBlock captures the thread-current MemoryAccountant at creation
// (MemoryAccountant::Current), charges its buffer capacity on allocation and
// growth, and releases it on destruction. ScopedMemoryAccounting installs
// the accountant for a scope; TaskGroup::Spawn propagates the spawner's
// accountant into scheduler tasks, so worker-thread allocations are charged
// to the same budget. Exceeding the budget latches `tripped`; the next
// Check() anywhere surfaces it as ResourceExhausted — allocation sites never
// fail mid-copy.
#ifndef PARAQUERY_COMMON_QUERY_CONTEXT_H_
#define PARAQUERY_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.hpp"

namespace paraquery {

/// Atomic byte meter with an optional hard limit. Thread-safe; shared
/// (shared_ptr) between the QueryContext that checks it and every RowBlock
/// that charges it, so blocks outliving the query release cleanly.
class MemoryAccountant {
 public:
  explicit MemoryAccountant(uint64_t limit_bytes = 0) : limit_(limit_bytes) {}

  /// Adds `delta` bytes (negative on release). Trips the latch when a
  /// nonzero limit is exceeded; never fails — Check() surfaces the trip.
  void Charge(int64_t delta) {
    uint64_t now = used_.fetch_add(static_cast<uint64_t>(delta),
                                   std::memory_order_relaxed) +
                   static_cast<uint64_t>(delta);
    if (delta > 0) {
      uint64_t peak = peak_.load(std::memory_order_relaxed);
      while (now > peak &&
             !peak_.compare_exchange_weak(peak, now,
                                          std::memory_order_relaxed)) {
      }
      if (limit_ != 0 && now > limit_) {
        tripped_.store(true, std::memory_order_relaxed);
      }
    }
  }

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t limit() const { return limit_; }
  /// Latched: once the limit is exceeded the budget stays tripped even if
  /// blocks are freed, so an aborting query cannot "un-fail" mid-unwind.
  bool tripped() const { return tripped_.load(std::memory_order_relaxed); }

  /// The accountant RowBlock allocations on this thread are charged to
  /// (null = unaccounted, the default outside engine runs).
  static const std::shared_ptr<MemoryAccountant>& Current();

 private:
  friend class ScopedMemoryAccounting;
  static std::shared_ptr<MemoryAccountant>& CurrentSlot();

  const uint64_t limit_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<bool> tripped_{false};
};

/// RAII: installs `accountant` as the thread-current one for the scope
/// (restores the previous on destruction). Null installs "unaccounted".
class ScopedMemoryAccounting {
 public:
  explicit ScopedMemoryAccounting(std::shared_ptr<MemoryAccountant> accountant)
      : prev_(std::move(MemoryAccountant::CurrentSlot())) {
    MemoryAccountant::CurrentSlot() = std::move(accountant);
  }
  ~ScopedMemoryAccounting() {
    MemoryAccountant::CurrentSlot() = std::move(prev_);
  }
  ScopedMemoryAccounting(const ScopedMemoryAccounting&) = delete;
  ScopedMemoryAccounting& operator=(const ScopedMemoryAccounting&) = delete;

 private:
  std::shared_ptr<MemoryAccountant> prev_;
};

/// Shared per-query abort state: deadline + cancellation + memory budget.
/// Arm* methods are called before execution fans out (or between runs);
/// Cancel() and Check() are thread-safe at any time.
class QueryContext {
 public:
  /// `parent` (optional, must outlive this context) is polled by Check()
  /// and Aborted() before this context's own state: a per-run context
  /// armed from limits still stops when the caller's token is cancelled.
  explicit QueryContext(const QueryContext* parent = nullptr)
      : parent_(parent) {}
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Sets the deadline to now + `max_wall_ms` (0 disarms).
  void ArmDeadline(uint64_t max_wall_ms);

  /// Installs a FRESH accountant with the given byte limit (0 disarms).
  /// Fresh per arm: bytes charged by earlier runs' still-live blocks are
  /// theirs, not this run's.
  void ArmMemory(uint64_t max_bytes);

  /// Requests cancellation. Sticky until Reset() — callers owning a token
  /// across runs reset it between them.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Clears cancellation, the deadline, and the memory budget.
  void Reset();

  /// First tripped condition as a Status: the parent's, then kCancelled,
  /// then kDeadlineExceeded, then ResourceExhausted (memory). OK otherwise.
  Status Check() const;

  /// Cheap polling form of Check() for loops that cannot return a Status
  /// (morsel lambdas): true iff Check() would fail.
  bool Aborted() const;

  /// The armed memory budget (null when ArmMemory was not called).
  const std::shared_ptr<MemoryAccountant>& memory() const { return memory_; }

 private:
  const QueryContext* const parent_;
  std::atomic<bool> cancelled_{false};
  /// Deadline as steady-clock nanoseconds-since-epoch; 0 = unarmed.
  std::atomic<int64_t> deadline_ns_{0};
  uint64_t max_wall_ms_ = 0;  // for the error message
  std::shared_ptr<MemoryAccountant> memory_;
};

}  // namespace paraquery

#endif  // PARAQUERY_COMMON_QUERY_CONTEXT_H_
