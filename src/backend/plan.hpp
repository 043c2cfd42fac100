// A Plan is the expensive output of a deterministic pipeline stage: a
// backend's prepare() (compiled QUBO, minor embedding, transpiled circuit)
// or one of the solver's memoized stages (presolve, certificate, ground
// truth). Plans are immutable once built, shared by pointer, and
// content-addressed by the Fingerprint of their inputs, so repeat solves
// of the same program (parameter scans, fallback re-runs, batch
// duplicates) skip straight to the stages that follow.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace nck::backend {

class Plan {
 public:
  virtual ~Plan() = default;

  /// Approximate heap footprint, charged against the cache's byte budget.
  virtual std::size_t bytes() const noexcept = 0;
};

using PlanPtr = std::shared_ptr<const Plan>;

/// The one Plan type: a stage's value plus the bytes it is charged.
template <typename T>
class Memo final : public Plan {
 public:
  Memo(T stored, std::size_t charged_bytes)
      : value(std::move(stored)), charged_bytes_(charged_bytes) {}

  std::size_t bytes() const noexcept override { return charged_bytes_; }

  const T value;

 private:
  std::size_t charged_bytes_;
};

/// A Memo charged for what it holds inline plus `heap_bytes`.
template <typename T>
PlanPtr make_memo(T value, std::size_t heap_bytes = 0) {
  return std::make_shared<const Memo<T>>(std::move(value),
                                         sizeof(Plan) + sizeof(T) + heap_bytes);
}

/// The value of a plan built as a Memo<T>.
template <typename T>
const T& memo_value(const Plan& plan) {
  return static_cast<const Memo<T>&>(plan).value;
}

}  // namespace nck::backend
