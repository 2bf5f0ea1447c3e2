#include "common/query_context.hpp"

#include <chrono>

namespace paraquery {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::shared_ptr<MemoryAccountant>& MemoryAccountant::CurrentSlot() {
  thread_local std::shared_ptr<MemoryAccountant> current;
  return current;
}

const std::shared_ptr<MemoryAccountant>& MemoryAccountant::Current() {
  return CurrentSlot();
}

void QueryContext::ArmDeadline(uint64_t max_wall_ms) {
  max_wall_ms_ = max_wall_ms;
  deadline_ns_.store(
      max_wall_ms == 0
          ? 0
          : NowNs() + static_cast<int64_t>(max_wall_ms) * 1000000,
      std::memory_order_relaxed);
}

void QueryContext::ArmMemory(uint64_t max_bytes) {
  memory_ = max_bytes == 0 ? nullptr
                           : std::make_shared<MemoryAccountant>(max_bytes);
}

void QueryContext::Reset() {
  cancelled_.store(false, std::memory_order_relaxed);
  deadline_ns_.store(0, std::memory_order_relaxed);
  max_wall_ms_ = 0;
  memory_ = nullptr;
}

Status QueryContext::Check() const {
  if (parent_ != nullptr) PQ_RETURN_NOT_OK(parent_->Check());
  if (cancelled_.load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && NowNs() >= deadline) {
    return Status::DeadlineExceeded(internal::StrCat(
        "query deadline of ", max_wall_ms_, " ms exceeded"));
  }
  if (memory_ != nullptr && memory_->tripped()) {
    return Status::ResourceExhausted(internal::StrCat(
        "query memory budget of ", memory_->limit(), " bytes exceeded (peak ",
        memory_->peak(), " bytes)"));
  }
  return Status::OK();
}

bool QueryContext::Aborted() const {
  if (parent_ != nullptr && parent_->Aborted()) return true;
  if (cancelled_.load(std::memory_order_relaxed)) return true;
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline != 0 && NowNs() >= deadline) return true;
  return memory_ != nullptr && memory_->tripped();
}

}  // namespace paraquery
