// The reference arm: edge-triggered epoll, one syscall per socket per
// operation. This is the original NetServer event loop, moved behind
// net::Backend - epoll_wait gathers readiness, accept4 loops to EAGAIN,
// recv reads until a short read (the queue is empty; the next arrival
// raises a new edge) or, once the peer has hung up, to EOF, and
// DirectFlush (sendmsg) pushes replies with EPOLLOUT continuation for
// partial writes. The uring arm is measured against this one; the
// loopback bit-identity pins run both.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <vector>

#include "net/backend.h"

namespace osap::net {

class EpollBackend final : public Backend {
 public:
  EpollBackend(NetServer& server, Edge& edge)
      : server_(server), edge_(edge) {}
  ~EpollBackend() override;

  BackendKind Kind() const override { return BackendKind::kEpoll; }
  void Init() override;
  void Pump(bool block) override;
  bool OnConnectionOpened(std::size_t slot) override;
  void OnConnectionClosing(std::size_t slot) override;
  void OnReadsResumed(std::size_t slot) override;
  void FlushWrites(std::size_t slot) override;
  void PrepareDrain() override {}  // nothing in flight to cancel

 private:
  /// accept4 until EAGAIN; each fd goes through the shared admission.
  void AcceptReady();
  /// Edge-triggered read, parsing as bytes land: recv until a short read
  /// (or EAGAIN, or pause); with `to_eof` (the peer hung up, or a paused
  /// read resumes) until EOF or EAGAIN, so a FIN is never left unread.
  /// EOF hands the connection to NetServer::FinishReads. False closes
  /// the connection (read or protocol error).
  bool DrainSocket(std::size_t slot, bool to_eof);
  /// Re-arms the fd's interest set (EPOLLIN|EPOLLRDHUP|EPOLLET
  /// [+EPOLLOUT]).
  void UpdateInterest(std::size_t slot);

  NetServer& server_;
  Edge& edge_;
  int epoll_fd_ = -1;
  std::vector<epoll_event> events_{256};
};

}  // namespace osap::net
