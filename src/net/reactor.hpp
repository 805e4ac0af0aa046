// Reactor — the readiness-notification engine behind the net event loop.
//
// Edge-triggered epoll(7). Descriptors register once with
// EPOLLIN|EPOLLOUT|EPOLLET and never re-arm; the kernel reports
// *transitions*, and the loop keeps sticky per-link readable/writable
// flags that it clears only on EAGAIN. wait() is O(ready), so one loop
// thread can drive the full-mesh fan-in of many nodes (n=100 ≈ 10k
// sockets) without rescanning idle descriptors.
//
// The transport targets Linux only (socket.cpp needs accept4 and
// SOCK_NONBLOCK, node.cpp needs MSG_NOSIGNAL), so there is one backend.
// reactor.cpp is the only translation unit allowed to include
// <sys/epoll.h> — enforced by tools/rcp-lint (os-header exclusivity, see
// tools/lint_rules.toml) — which keeps the kernel ABI out of every other
// file.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace rcp::net {

/// One readiness report. `mask` is a Reactor::k* bitmask; `token` is the
/// opaque value supplied at add()/modify() time (the loop packs a node
/// index and a per-node subject into it). Dispatch is by token: epoll's
/// event union carries the token, not the fd.
struct ReactorEvent {
  unsigned mask = 0;
  std::uint64_t token = 0;
};

class Reactor {
 public:
  static constexpr unsigned kRead = 1u << 0;
  static constexpr unsigned kWrite = 1u << 1;
  /// Error/hangup. The loop treats it as readable so the next read()
  /// observes the error/EOF.
  static constexpr unsigned kError = 1u << 2;

  /// Throws rcp::Error if the epoll instance cannot be created.
  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Registers a descriptor for both directions, edge-triggered (the
  /// loop's sticky flags do the filtering). Registering twice throws.
  void add(int fd, std::uint64_t token);

  /// Re-addresses a registered descriptor to a new token.
  void modify(int fd, std::uint64_t token);

  /// Deregisters a descriptor. Must be called before close(), while the
  /// fd is still open.
  void remove(int fd);

  /// Blocks up to timeout_ms (0 = immediate, negative = forever) and
  /// fills events(). Returns the event count; EINTR counts as zero.
  int wait(int timeout_ms);

  /// Events produced by the last wait(); valid until the next wait().
  [[nodiscard]] std::span<const ReactorEvent> events() const noexcept {
    return events_;
  }

 private:
  /// The kernel event buffer (its type lives in <sys/epoll.h>).
  struct KernelEvents;

  int epfd_ = -1;
  std::size_t registered_ = 0;
  std::unique_ptr<KernelEvents> kernel_;
  std::vector<ReactorEvent> events_;
};

}  // namespace rcp::net
