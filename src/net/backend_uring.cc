#include "net/backend_uring.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/edge.h"
#include "net/server.h"

namespace osap::net {

namespace {

/// Provided-buffer ring: count (power of two) x size handed to the
/// kernel for multishot recv. Frames are small (a STEP request is ~100
/// bytes), so many modest buffers beat few kReadChunk-sized ones: a
/// pipelined burst lands across several CQEs and every byte is memcpy'd
/// out and the buffer recycled before the next Submit.
constexpr std::uint16_t kBufGroup = 0;
constexpr std::uint32_t kRecvBufCount = 256;
constexpr std::uint32_t kRecvBufSize = 8 * 1024;

constexpr unsigned kSqEntries = 512;
constexpr unsigned kCqEntries = 4096;

/// user_data slot value for ops that have no connection (listener,
/// wake, cancel-all) or whose cancel CQE nobody needs to see.
constexpr std::uint32_t kNoConn = 0xffffffffu;

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

/// user_data layout: [63:56] op, [55:32] generation, [31:0] slot.
constexpr std::uint64_t MakeTag(std::uint8_t op, std::uint32_t gen,
                                std::uint32_t slot) {
  return (static_cast<std::uint64_t>(op) << 56) |
         (static_cast<std::uint64_t>(gen & 0xffffffu) << 32) | slot;
}

}  // namespace

bool UringBackendAvailable() { return util::IoUring::KernelSupported(); }

const char* UringUnavailableReason() {
  return util::IoUring::UnsupportedReason();
}

void UringBackend::Init() {
  if (!ring_.Init(kSqEntries, kCqEntries)) {
    ThrowErrno("UringBackend: io_uring_setup");
  }
  if (!ring_.RegisterBufRing(kBufGroup, kRecvBufCount, kRecvBufSize)) {
    ThrowErrno("UringBackend: IORING_REGISTER_PBUF_RING");
  }
  ArmAccept();
  ArmWake();
  ring_.Submit();
  SyncSyscalls();
}

void UringBackend::Pump(bool block) {
  // One enter for the whole round: publish every SQE queued since the
  // last kick and (when idle) sleep until a CQE lands - already-pending
  // CQEs make the wait pointless, so skip it.
  const unsigned wait = (block && ring_.PeekCqe() == nullptr) ? 1 : 0;
  ring_.Submit(wait);
  DrainCqes();
  ProcessRearms();
  SyncSyscalls();
}

void UringBackend::Kick() {
  ring_.Submit();
  SyncSyscalls();
}

void UringBackend::DrainCqes() {
  const io_uring_cqe* cqe;
  while ((cqe = ring_.PeekCqe()) != nullptr) {
    const io_uring_cqe copy = *cqe;
    ring_.AdvanceCqe();
    HandleCqe(copy);
  }
}

void UringBackend::HandleCqe(const io_uring_cqe& cqe) {
  // Every CQE belongs to an op this backend armed; an op instance stays
  // "in flight" until its final CQE (multishots signal more-to-come
  // with F_MORE).
  const bool terminal = (cqe.flags & IORING_CQE_F_MORE) == 0;
  if (terminal && ops_in_flight_ > 0) --ops_in_flight_;
  const auto op = static_cast<Op>(cqe.user_data >> 56);
  const auto gen =
      static_cast<std::uint32_t>((cqe.user_data >> 32) & 0xffffffu);
  const auto slot = static_cast<std::uint32_t>(cqe.user_data);
  switch (op) {
    case Op::kAccept:
      OnAcceptCqe(cqe.res, terminal);
      break;
    case Op::kWake:
      OnWakeCqe(terminal);
      break;
    case Op::kRecv:
      OnRecvCqe(slot, gen, cqe, terminal);
      break;
    case Op::kSend:
      OnSendCqe(slot, gen, cqe.res);
      break;
    case Op::kCancel:
      OnCancelCqe(slot, gen);
      break;
  }
}

void UringBackend::OnAcceptCqe(int res, bool terminal) {
  if (res >= 0) {
    if (draining_) {
      ::close(res);  // nothing new past the drain point
    } else {
      server_.AdmitConnection(edge_, res);
    }
  }
  // The multishot terminated (backlog hiccup, ECANCELED, fd pressure):
  // stand a fresh one up unless we are tearing down.
  if (terminal && !draining_) ArmAccept();
}

void UringBackend::OnWakeCqe(bool terminal) {
  std::uint64_t drained = 0;
  [[maybe_unused]] const ssize_t r =
      ::read(edge_.wake_fd, &drained, sizeof drained);
  edge_.io_syscalls.fetch_add(1, std::memory_order_relaxed);
  if (terminal && !draining_) ArmWake();
}

void UringBackend::OnRecvCqe(std::uint32_t slot, std::uint32_t gen,
                             const io_uring_cqe& cqe, bool terminal) {
  SlotIo& io = slot_io_[slot];
  const bool stale = gen != io.gen;
  // The provided buffer goes back to the kernel immediately - its bytes
  // are copied into the connection's own input slab first (stale or
  // draining CQEs drop them: a dead peer's bytes have no stream to
  // join, and the drain path reads nothing new by contract).
  if ((cqe.flags & IORING_CQE_F_BUFFER) != 0) {
    const auto bid =
        static_cast<std::uint16_t>(cqe.flags >> IORING_CQE_BUFFER_SHIFT);
    if (cqe.res > 0 && !stale && !draining_) {
      Connection& conn = *edge_.connections[slot];
      const std::uint8_t* data = ring_.BufferData(bid);
      conn.in.insert(conn.in.end(), data, data + cqe.res);
    }
    ring_.RecycleBuffer(bid);
  }
  if (stale) return;
  if (terminal) io.recv_armed = false;
  Connection& conn = *edge_.connections[slot];
  if (!conn.open || draining_) return;
  if (cqe.res == 0) {  // EOF: answer what the peer sent, then close
    server_.FinishReads(edge_, slot);
    return;
  }
  if (cqe.res < 0) {
    switch (-cqe.res) {
      case ENOBUFS:
        // The buffer ring ran dry mid-round; this round's CQEs recycle
        // buffers as they drain, so re-arm once the round is processed.
        rearm_recv_.push_back(slot);
        return;
      case ECANCELED:  // our pause-cancel landed
        io.cancel_pending = false;
        MaybeRearmRecv(slot);
        return;
      case EINTR:
      case EAGAIN:
        MaybeRearmRecv(slot);
        return;
      default:
        server_.CloseConnection(edge_, slot);
        return;
    }
  }
  if (!server_.ParseBuffered(edge_, slot)) {
    server_.CloseConnection(edge_, slot);
    return;
  }
  if (conn.paused && io.recv_armed && !io.cancel_pending) {
    // TCP pushback: a standing multishot recv would keep emptying the
    // socket and defeat the closed-window backpressure - cancel it (by
    // user_data; data CQEs already in flight still append above and
    // wait, unparsed, for the resume).
    SubmitCancel(MakeTag(static_cast<std::uint8_t>(Op::kRecv), io.gen,
                         slot),
                 slot, io.gen);
    io.cancel_pending = true;
  }
  if (terminal) MaybeRearmRecv(slot);
}

void UringBackend::OnSendCqe(std::uint32_t slot, std::uint32_t gen,
                             int res) {
  SlotIo& io = slot_io_[slot];
  if (gen != io.gen) {
    // The connection closed while this send was in flight; the zombie
    // list kept its frames alive for the kernel - recycle them now.
    for (auto it = zombie_sends_.begin(); it != zombie_sends_.end(); ++it) {
      if (it->slot != slot || it->gen != gen) continue;
      for (auto& frame : it->frames) {
        frame.clear();
        edge_.spare_frames.push_back(std::move(frame));
      }
      zombie_sends_.erase(it);
      break;
    }
    return;
  }
  io.send_inflight = false;
  Connection& conn = *edge_.connections[slot];
  if (!conn.open) return;
  if (res < 0) {
    switch (-res) {
      case ECANCELED:  // drain cancel: DirectFlush owns the socket now
        return;
      case EINTR:
      case EAGAIN:
        StartSend(slot);
        return;
      default:  // EPIPE, ECONNRESET, ...: peer is gone
        server_.CloseConnection(edge_, slot);
        return;
    }
  }
  server_.ConsumeOutput(edge_, slot, static_cast<std::size_t>(res));
  if (!drained_ && conn.out_head < conn.out_q.size()) StartSend(slot);
  server_.CloseIfFinished(edge_, slot);
}

void UringBackend::OnCancelCqe(std::uint32_t slot, std::uint32_t gen) {
  if (slot == kNoConn) return;  // close-cancel / cancel-all: fire-and-forget
  SlotIo& io = slot_io_[slot];
  if (gen != io.gen) return;
  // Pause-cancel settled (possibly -ENOENT because the recv terminated
  // on its own first). If the connection resumed while the cancel was
  // in flight, it is waiting on us to re-arm.
  io.cancel_pending = false;
  MaybeRearmRecv(slot);
}

void UringBackend::ArmAccept() {
  io_uring_sqe* sqe = ring_.GetSqe();
  sqe->opcode = IORING_OP_ACCEPT;
  sqe->fd = edge_.listen_fd;
  sqe->ioprio = IORING_ACCEPT_MULTISHOT;
  sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
  sqe->user_data =
      MakeTag(static_cast<std::uint8_t>(Op::kAccept), 0, kNoConn);
  ++ops_in_flight_;
}

void UringBackend::ArmWake() {
  io_uring_sqe* sqe = ring_.GetSqe();
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = edge_.wake_fd;
  sqe->len = IORING_POLL_ADD_MULTI;
  sqe->poll32_events = POLLIN;
  sqe->user_data =
      MakeTag(static_cast<std::uint8_t>(Op::kWake), 0, kNoConn);
  ++ops_in_flight_;
}

void UringBackend::ArmRecv(std::size_t slot) {
  Connection& conn = *edge_.connections[slot];
  SlotIo& io = slot_io_[slot];
  io_uring_sqe* sqe = ring_.GetSqe();
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = conn.fd;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = kBufGroup;
  sqe->user_data = MakeTag(static_cast<std::uint8_t>(Op::kRecv), io.gen,
                           static_cast<std::uint32_t>(slot));
  io.recv_armed = true;
  ++ops_in_flight_;
}

void UringBackend::MaybeRearmRecv(std::size_t slot) {
  Connection& conn = *edge_.connections[slot];
  SlotIo& io = slot_io_[slot];
  if (conn.open && !conn.paused && !conn.read_closed && !io.recv_armed &&
      !io.cancel_pending && !draining_) {
    ArmRecv(slot);
  }
}

void UringBackend::StartSend(std::size_t slot) {
  Connection& conn = *edge_.connections[slot];
  SlotIo& io = slot_io_[slot];
  io.iov.clear();
  for (std::size_t i = conn.out_head;
       i < conn.out_q.size() &&
       io.iov.size() < static_cast<std::size_t>(kMaxIov);
       ++i) {
    const std::size_t off = i == conn.out_head ? conn.out_head_off : 0;
    iovec entry;
    entry.iov_base =
        const_cast<std::uint8_t*>(conn.out_q[i].data() + off);
    entry.iov_len = conn.out_q[i].size() - off;
    io.iov.push_back(entry);
  }
  std::memset(&io.msg, 0, sizeof io.msg);
  io.msg.msg_iov = io.iov.data();
  io.msg.msg_iovlen = io.iov.size();
  io_uring_sqe* sqe = ring_.GetSqe();
  sqe->opcode = IORING_OP_SENDMSG;
  sqe->fd = conn.fd;
  sqe->addr = reinterpret_cast<std::uint64_t>(&io.msg);
  sqe->len = 1;
  sqe->msg_flags = MSG_NOSIGNAL;  // peer reset -> EPIPE, never SIGPIPE
  sqe->user_data = MakeTag(static_cast<std::uint8_t>(Op::kSend), io.gen,
                           static_cast<std::uint32_t>(slot));
  io.send_inflight = true;
  ++ops_in_flight_;
}

void UringBackend::SubmitCancel(std::uint64_t target,
                                std::uint32_t tag_slot,
                                std::uint32_t tag_gen) {
  io_uring_sqe* sqe = ring_.GetSqe();
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->addr = target;
  sqe->user_data = MakeTag(static_cast<std::uint8_t>(Op::kCancel),
                           tag_gen, tag_slot);
  ++ops_in_flight_;
}

bool UringBackend::OnConnectionOpened(std::size_t slot) {
  if (slot_io_.size() <= slot) slot_io_.resize(slot + 1);
  SlotIo& io = slot_io_[slot];
  io.recv_armed = false;  // gen survived the last close; flags reset
  io.send_inflight = false;
  io.cancel_pending = false;
  ArmRecv(slot);
  return true;
}

void UringBackend::OnConnectionClosing(std::size_t slot) {
  SlotIo& io = slot_io_[slot];
  // Cancel by user_data, not fd: the fd closes right after this call
  // and may be reused by the next accept before the CQEs land.
  if (io.recv_armed || io.cancel_pending) {
    SubmitCancel(MakeTag(static_cast<std::uint8_t>(Op::kRecv), io.gen,
                         static_cast<std::uint32_t>(slot)),
                 kNoConn, 0);
  }
  if (io.send_inflight) {
    SubmitCancel(MakeTag(static_cast<std::uint8_t>(Op::kSend), io.gen,
                         static_cast<std::uint32_t>(slot)),
                 kNoConn, 0);
    // The kernel may still be reading the reply frames' bytes: park
    // them until the stale send CQE releases them (the server recycles
    // an empty out_q and never notices).
    Connection& conn = *edge_.connections[slot];
    zombie_sends_.push_back({static_cast<std::uint32_t>(slot), io.gen,
                             std::move(conn.out_q)});
    conn.out_q.clear();
  }
  io.gen = (io.gen + 1) & 0xffffffu;
  io.recv_armed = false;
  io.send_inflight = false;
  io.cancel_pending = false;
}

void UringBackend::OnReadsResumed(std::size_t slot) {
  // Unlike the edge-triggered arm there is nothing to drain by hand:
  // bytes that arrived while paused sit in the socket buffer and a
  // fresh multishot recv delivers them. If the pause-cancel is still in
  // flight, its CQE re-arms through the same guarded path.
  MaybeRearmRecv(slot);
}

void UringBackend::FlushWrites(std::size_t slot) {
  if (drained_) {
    // Post-quiesce the ring is idle by invariant; the shared blocking
    // drain path owns the sockets.
    server_.DirectFlush(edge_, slot);
    return;
  }
  Connection& conn = *edge_.connections[slot];
  SlotIo& io = slot_io_[slot];
  // One in-flight SENDMSG per connection keeps the byte stream ordered;
  // its CQE chains the next batch if frames remain.
  if (!io.send_inflight && conn.out_head < conn.out_q.size()) {
    StartSend(slot);
  }
}

void UringBackend::PrepareDrain() {
  draining_ = true;
  // One cancel-all covers every standing op (multishot accepts/recvs/
  // polls and in-flight sends); then reap until the op counter says the
  // ring is quiet. Sends that had already moved bytes complete normally
  // and advance the shared continuation - nothing is sent twice.
  io_uring_sqe* sqe = ring_.GetSqe();
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->cancel_flags = IORING_ASYNC_CANCEL_ANY;
  sqe->user_data =
      MakeTag(static_cast<std::uint8_t>(Op::kCancel), 0, kNoConn);
  ++ops_in_flight_;
  while (ops_in_flight_ > 0) {
    ring_.Submit(1);
    DrainCqes();
  }
  rearm_recv_.clear();
  drained_ = true;
  SyncSyscalls();
}

void UringBackend::ProcessRearms() {
  for (const std::uint32_t slot : rearm_recv_) MaybeRearmRecv(slot);
  rearm_recv_.clear();
}

void UringBackend::SyncSyscalls() {
  const std::uint64_t now = ring_.enter_calls();
  edge_.io_syscalls.fetch_add(now - last_enter_calls_,
                              std::memory_order_relaxed);
  last_enter_calls_ = now;
}

}  // namespace osap::net
