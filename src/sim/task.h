// Coroutine task type for simulation processes.
//
// A sim::Task is a lazily-started coroutine. It is either
//   * spawned detached on a Simulator (root process), or
//   * awaited by a parent task (`co_await child()`), which starts it
//     immediately and resumes the parent when it finishes.
//
// Ownership: the Task object owns the coroutine frame. Detached root tasks
// are owned by the Simulator; child tasks are owned by the awaiting frame,
// so destroying a parent tears down its children.
//
// Exceptions: a child's exception is rethrown in the awaiting parent; a
// root's has no parent to wait for, so it escapes Simulator::run().
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "common/check.h"

namespace lp::sim {

class Simulator;

class [[nodiscard]] Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;  // parent frame to resume on finish
    std::exception_ptr exception;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept {
        if (auto cont = h.promise().continuation) return cont;
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      if (!continuation) throw;  // a root process: escape the resume
      exception = std::current_exception();
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a task starts it; the awaiter resumes when the task finishes.
  /// Exceptions escaping the child are rethrown in the parent.
  struct Awaiter {
    std::coroutine_handle<promise_type> child;
    bool await_ready() const { return !child || child.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
      child.promise().continuation = parent;
      return child;  // symmetric transfer: start the child now
    }
    void await_resume() const {
      if (child && child.promise().exception)
        std::rethrow_exception(child.promise().exception);
    }
  };
  Awaiter operator co_await() const { return Awaiter{handle_}; }

 private:
  friend class Simulator;

  /// Releases ownership of the frame (used by Simulator::spawn).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace lp::sim
