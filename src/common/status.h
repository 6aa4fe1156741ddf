// Copyright (c) Eleos reproduction authors. MIT license.
//
// Lightweight Status / StatusOr for recoverable failures.
//
// The hostile-host hardening (fault injection, MAC failures, rollback
// detection, arena exhaustion) needs error paths that do not unwind through
// C++ exceptions: a misbehaving host must degrade service, not abort the
// enclave. Modeled on absl::Status but dependency-free and small enough for
// the trusted runtime.

#ifndef ELEOS_SRC_COMMON_STATUS_H_
#define ELEOS_SRC_COMMON_STATUS_H_

#include <cassert>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace eleos {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kFailedPrecondition = 2,
  kResourceExhausted = 3,   // EPC++/backing-store arena exhausted
  kDataCorruption = 4,      // MAC failure: tampered or rolled-back ciphertext
  kUnavailable = 5,         // RPC worker stalled/dead; retry or fall back
  kNotFound = 6,
  kInternal = 7,
  kRollbackDetected = 8,    // stale-but-genuine state replayed (freshness lost)
  kHostileInput = 9,        // untrusted-memory value failed boundary validation
};

inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kDataCorruption: return "DATA_CORRUPTION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kRollbackDetected: return "ROLLBACK_DETECTED";
    case StatusCode::kHostileInput: return "HOSTILE_INPUT";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status DataCorruption(std::string m) {
    return Status(StatusCode::kDataCorruption, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status RollbackDetected(std::string m) {
    return Status(StatusCode::kRollbackDetected, std::move(m));
  }
  static Status HostileInput(std::string m) {
    return Status(StatusCode::kHostileInput, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Holds either a value or a non-OK Status. Minimal: no implicit conversions
// beyond construction, value access asserts ok().
template <typename T>
class StatusOr {
 public:
  StatusOr(const T& value) : has_value_(true) { new (&value_) T(value); }
  StatusOr(T&& value) : has_value_(true) { new (&value_) T(std::move(value)); }
  StatusOr(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr(Status) requires a non-OK status");
  }

  StatusOr(const StatusOr& other) : status_(other.status_), has_value_(other.has_value_) {
    if (has_value_) {
      new (&value_) T(other.value_);
    }
  }
  StatusOr(StatusOr&& other) noexcept
      : status_(std::move(other.status_)), has_value_(other.has_value_) {
    if (has_value_) {
      new (&value_) T(std::move(other.value_));
    }
  }
  StatusOr& operator=(const StatusOr&) = delete;
  ~StatusOr() {
    if (has_value_) {
      value_.~T();
    }
  }

  bool ok() const { return has_value_; }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(has_value_);
    return value_;
  }
  T& value() & {
    assert(has_value_);
    return value_;
  }
  T&& value() && {
    assert(has_value_);
    return std::move(value_);
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  Status status_;
  bool has_value_ = false;
  union {
    T value_;
  };
};

// The one adapter from Status to exceptions, for callers that cannot return a
// Status (spointer dereference, containers, benches, examples): throws
// std::runtime_error carrying status.ToString() when the status is not OK.
inline void ThrowIfError(const Status& status) {
  if (!status.ok()) {
    throw std::runtime_error(status.ToString());
  }
}

template <typename T>
T ValueOrThrow(StatusOr<T> status_or) {
  ThrowIfError(status_or.status());
  return std::move(status_or).value();
}

}  // namespace eleos

#endif  // ELEOS_SRC_COMMON_STATUS_H_
