// Structured error taxonomy for the simulated device layer.
//
// Every failure the device can report — allocation beyond capacity, an
// out-of-bounds or use-after-free access caught by guarded memory, or an
// (injected) kernel-launch failure — is a distinct exception type, so callers
// can implement per-failure policies: the engine retries OutOfMemory with a
// partitioned fallback, while InvalidAccess is a programming error that must
// surface loudly.
//
// DeviceError derives from tlp::CheckError so existing catch sites that
// treat CheckError as "library error" keep working unchanged.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"

namespace tlp {

/// Where a device failure came from: a genuine resource limit, or a specific
/// FaultPlan entry. Injected faults carry the plan field that fired, the
/// device-side sequence number it fired at, and the caller-supplied context
/// label (Device::set_fault_context — the serving loop tags the current
/// request), so a log line or test failure is self-explaining without
/// correlating device counters by hand.
struct FaultProvenance {
  enum class Source {
    kNone,            ///< not fault-plan related (real capacity, real bug)
    kCapacity,        ///< the GpuSpec memory limit, no injection involved
    kInjectedOom,     ///< a FaultPlan allocation fault
    kInjectedLaunch,  ///< a FaultPlan launch fault
  };

  Source source = Source::kNone;
  /// FaultPlan field that fired ("oom_at_alloc", "oom_every", ...); empty
  /// when source is not injected.
  std::string plan_field;
  /// Value of that plan field (the N of "fail the Nth" / the burst period).
  std::int64_t plan_value = 0;
  /// Device-side ordinal the fault fired at: the allocation sequence number
  /// for OOM faults, the launch sequence number for launch faults. Relative
  /// to the most recent arm_faults() re-arming.
  std::int64_t seq = 0;
  /// Caller-set label of the work in flight ("req 17 attempt 2"), empty when
  /// the caller never tagged the device.
  std::string context;

  [[nodiscard]] bool injected() const {
    return source == Source::kInjectedOom || source == Source::kInjectedLaunch;
  }

  /// " [injected by FaultPlan oom_every=50 at alloc #101; req 17]" — empty
  /// string for non-injected sources, so it can be appended unconditionally.
  [[nodiscard]] std::string describe() const {
    if (!injected()) return "";
    std::string out = " [injected by FaultPlan " + plan_field + "=" +
                      std::to_string(plan_value) + " at " +
                      (source == Source::kInjectedOom ? "alloc" : "launch") +
                      " #" + std::to_string(seq);
    if (!context.empty()) out += "; " + context;
    out += "]";
    return out;
  }
};

/// Base class of all simulated-device failures.
class DeviceError : public CheckError {
 public:
  explicit DeviceError(const std::string& what) : CheckError(what) {}

  /// Fault-injection provenance; source == kNone unless the failure was
  /// manufactured by a FaultPlan (or, for OutOfMemory, the capacity limit).
  FaultProvenance provenance;
};

/// Allocation would exceed device capacity, or an injected allocation fault.
class OutOfMemory : public DeviceError {
 public:
  OutOfMemory(const std::string& what, std::int64_t requested,
              std::int64_t live, std::int64_t capacity)
      : DeviceError(what),
        requested_bytes(requested),
        live_bytes(live),
        capacity_bytes(capacity) {}

  std::int64_t requested_bytes = 0;
  std::int64_t live_bytes = 0;
  std::int64_t capacity_bytes = 0;  ///< 0 = injected fault, not a real limit
};

/// A load/store/atomic touched memory outside any live allocation (redzone /
/// out-of-bounds) or inside a freed allocation (use-after-free).
class InvalidAccess : public DeviceError {
 public:
  InvalidAccess(const std::string& what, std::uint64_t addr,
                std::string kernel_name)
      : DeviceError(what), byte_addr(addr), kernel(std::move(kernel_name)) {}

  std::uint64_t byte_addr = 0;
  std::string kernel;  ///< empty when no kernel was running
};

/// A kernel launch failed (fault injection; mirrors cudaLaunchKernel errors).
class LaunchFailure : public DeviceError {
 public:
  LaunchFailure(const std::string& what, std::string kernel_name)
      : DeviceError(what), kernel(std::move(kernel_name)) {}

  std::string kernel;
};

}  // namespace tlp
