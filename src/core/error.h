// ann::error — the unified error taxonomy (docs/RELIABILITY.md).
//
// Every failure this library raises deliberately derives from BOTH a
// standard exception type (so pre-taxonomy call sites catching
// std::runtime_error / std::logic_error keep working unchanged) AND the
// ann::error mixin, so an operator can write ONE handler for "the ANN
// layer failed" without enumerating concrete types:
//
//   try {
//     index = ann::AnyIndex::load(path);
//   } catch (const ann::error& e) {
//     log("index load failed: %s", e.what());
//   }
//
// Concrete types and what they mean:
//   corrupt_data           a container, payload, or vector store failed
//                          validation — torn write, bit flip, truncation,
//                          wrong magic/version. The file must not be
//                          trusted; restore from a replica or rebuild.
//   io_error               the operating system failed an IO operation
//                          (short write, fsync, rename, mmap, open). The
//                          data in memory is fine; the device or path is
//                          not. Atomic save guarantees the previous
//                          container at the final path is untouched.
//   deadline_exceeded      a serving request expired in the queue before
//                          dispatch (SearchService deadline_ms). The
//                          request was well-formed; the service was slow.
//   unsupported_operation  the backend does not implement the invoked
//                          capability (mutation on a build-once index,
//                          quantized search on a bucketed backend).
//   queue_full             SearchService admission under kReject while the
//                          submission queue is at capacity; retry with
//                          backoff or shed the load.
//   invalid_input          a coordinate passed to build, insert, a search
//                          or a serving submit is outside the input domain
//                          (NaN or infinite). Nothing was changed or
//                          queued; fix the caller's data.
//
// The mixin is deliberately interface-only (no message storage): the
// standard base owns the message, and each concrete type forwards what()
// so `catch (const ann::error&)` and `catch (const std::exception&)` read
// the same text.
#pragma once

#include <stdexcept>
#include <string>

namespace ann {

class error {
 public:
  virtual const char* what() const noexcept = 0;

 protected:
  error() = default;
  error(const error&) = default;
  error& operator=(const error&) = default;
  ~error() = default;
};

// Persisted state failed validation (checksum mismatch, bad magic/version,
// truncation, impossible header). Raised at load/open/verify time — and by
// the lazily verified mmap store at first access to a corrupt block.
class corrupt_data : public std::runtime_error, public error {
 public:
  explicit corrupt_data(const std::string& msg) : std::runtime_error(msg) {}
  const char* what() const noexcept override {
    return std::runtime_error::what();
  }
};

// The OS failed an IO operation (write, fsync, rename, open, mmap). The
// in-memory index is untouched; with atomic save, so is any previously
// persisted container at the final path.
class io_error : public std::runtime_error, public error {
 public:
  explicit io_error(const std::string& msg) : std::runtime_error(msg) {}
  const char* what() const noexcept override {
    return std::runtime_error::what();
  }
};

// A serving request expired in the submission queue before dispatch (the
// per-request deadline_ms). Delivered through the request's future or
// callback, never thrown from submit().
class deadline_exceeded : public std::runtime_error, public error {
 public:
  explicit deadline_exceeded(const std::string& msg)
      : std::runtime_error(msg) {}
  const char* what() const noexcept override {
    return std::runtime_error::what();
  }
};

// A capability the backend does not implement was invoked (e.g. insert on
// a build-once index). Distinct from std::invalid_argument so callers can
// branch on "wrong call" vs "backend cannot do this at all". Kept on
// std::logic_error, its pre-taxonomy base.
class unsupported_operation : public std::logic_error, public error {
 public:
  explicit unsupported_operation(const std::string& msg)
      : std::logic_error(msg) {}
  explicit unsupported_operation(const char* msg) : std::logic_error(msg) {}
  const char* what() const noexcept override {
    return std::logic_error::what();
  }
};

// SearchService admission under BackpressurePolicy::kReject with the
// submission queue at capacity. The request was well-formed, the service
// is just saturated — callers typically retry with backoff or shed the
// load. Kept on std::runtime_error, its pre-taxonomy base.
class queue_full : public std::runtime_error, public error {
 public:
  explicit queue_full(const std::string& msg) : std::runtime_error(msg) {}
  const char* what() const noexcept override {
    return std::runtime_error::what();
  }
};

// An input coordinate is outside the domain every search relies on: NaN or
// infinite float values break the strict (dist, id) order that beams, sorts
// and merges need, and would come back as plausible-looking neighbours with
// NaN distances. Raised synchronously at the public entry point, before any
// state changes. Kept on std::invalid_argument, like the other
// caller-supplied-argument failures.
class invalid_input : public std::invalid_argument, public error {
 public:
  explicit invalid_input(const std::string& msg)
      : std::invalid_argument(msg) {}
  const char* what() const noexcept override {
    return std::invalid_argument::what();
  }
};

}  // namespace ann
