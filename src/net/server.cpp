#include "net/server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

#include "obs/obs.hpp"

namespace pop::net {

namespace {

// Sentinel for the listen socket in worker 0's epoll (real connections
// carry their Conn* in data.ptr; the listen fd has no Conn).
void* const kListenTag = reinterpret_cast<void*>(uintptr_t{1});

bool set_nonblocking(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  return fl >= 0 && fcntl(fd, F_SETFL, fl | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

NetServer::NetServer(const NetServerConfig& cfg) : cfg_(cfg) {}

std::unique_ptr<NetServer> NetServer::create(const NetServerConfig& cfg) {
  auto srv = std::unique_ptr<NetServer>(new NetServer(cfg));
  if (srv->cfg_.workers < 1) srv->cfg_.workers = 1;

  srv->map_ = service::make_service_set(cfg.ds, cfg.smr, cfg.set, cfg.shards,
                                        cfg.hash);
  if (!srv->map_) return nullptr;  // factory already named the bad name

  if (cfg.listen) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    if (fd < 0) {
      std::perror("popsmr_server: socket");
      return nullptr;
    }
    int one = 1;
    (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
      std::fprintf(stderr, "popsmr_server: bad bind host '%s'\n",
                   cfg.host.c_str());
      close(fd);
      return nullptr;
    }
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(fd, 128) != 0) {
      std::fprintf(stderr, "popsmr_server: bind/listen %s:%u failed: %s\n",
                   cfg.host.c_str(), unsigned{cfg.port}, strerror(errno));
      close(fd);
      return nullptr;
    }
    // Resolve port 0 to the kernel's pick.
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
      srv->port_ = ntohs(bound.sin_port);
    }
    srv->listen_fd_ = fd;
  }
  return srv;
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  if (running_.exchange(true)) return;
  stop_.store(false, std::memory_order_release);
  workers_.clear();
  for (int w = 0; w < cfg_.workers; ++w) {
    auto wk = std::make_unique<Worker>();
    wk->epfd = epoll_create1(EPOLL_CLOEXEC);
    if (wk->epfd < 0) {
      std::perror("popsmr_server: epoll_create1");
      std::abort();  // resource exhaustion at startup; nothing to unwind
    }
    workers_.push_back(std::move(wk));
  }
  if (listen_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: accept_burst may leave backlog
    ev.data.ptr = kListenTag;
    (void)epoll_ctl(workers_[0]->epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
}

void NetServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  for (auto& wk : workers_) {
    if (wk->thread.joinable()) wk->thread.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& wk : workers_) {
    // The worker already closed its conns on the way out; epfd is ours.
    if (wk->epfd >= 0) {
      close(wk->epfd);
      wk->epfd = -1;
    }
  }
  running_.store(false, std::memory_order_release);
}

bool NetServer::adopt(int fd) {
  if (!running_.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire)) {
    close(fd);
    return false;
  }
  if (!set_nonblocking(fd)) {
    close(fd);
    return false;
  }
  return register_conn(fd);
}

bool NetServer::register_conn(int fd) {
  const int w = static_cast<int>(
      next_worker_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint64_t>(cfg_.workers));
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->worker = w;
  conn->stats.conn_id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  Conn* raw = conn.get();
  {
    std::lock_guard<std::mutex> lk(workers_[w]->mu);
    workers_[w]->conns.push_back(std::move(conn));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
  ev.data.ptr = raw;
  if (epoll_ctl(workers_[w]->epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    destroy_conn(raw);
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void NetServer::accept_burst() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient accept error
    }
    set_nodelay(fd);
    register_conn(fd);
  }
}

void NetServer::worker_loop(int w) {
  Worker& wk = *workers_[w];
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    // Short timeout so stop() is honored promptly; SMR ping signals also
    // interrupt the wait (EINTR), which is harmless — we just loop.
    const int n = epoll_wait(wk.epfd, events, 64, 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == kListenTag) {
        accept_burst();
        continue;
      }
      Conn* c = static_cast<Conn*>(events[i].data.ptr);
      if (c->dead) continue;  // closed earlier in this event burst
      const uint32_t ev = events[i].events;
      if (ev & (EPOLLHUP | EPOLLERR)) {
        c->dead = true;
      } else {
        if (ev & EPOLLOUT) flush_writes(c);
        if (!c->dead && (ev & (EPOLLIN | EPOLLRDHUP))) drain_readable(c);
      }
      if (c->dead) destroy_conn(c);
    }
  }
  // Teardown: close every connection this worker still owns, then drop
  // the thread's SMR attachments before it exits.
  for (;;) {
    Conn* victim = nullptr;
    {
      std::lock_guard<std::mutex> lk(wk.mu);
      if (!wk.conns.empty()) victim = wk.conns.back().get();
    }
    if (!victim) break;
    destroy_conn(victim);
  }
  map_->detach_thread();
}

void NetServer::drain_readable(Conn* c) {
  uint8_t buf[16 * 1024];
  bool saw_eof = false;
  for (;;) {
    const ssize_t r = read(c->fd, buf, sizeof(buf));
    if (r > 0) {
      c->in.feed(buf, static_cast<size_t>(r));
      if (static_cast<size_t>(r) < sizeof(buf)) break;  // drained (ET-safe:
      // a short read means the socket buffer is empty right now; anything
      // arriving after it re-arms the edge)
      continue;
    }
    if (r == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    c->dead = true;  // hard read error
    return;
  }

  // Split everything buffered into one decoded pipeline, then execute it
  // under a single batch bracket.
  c->batch.clear();
  for (;;) {
    const uint8_t* body = nullptr;
    uint32_t len = 0;
    const auto res = c->in.next(&body, &len);
    if (res == FrameSplitter::Result::kNeedMore) break;
    if (res == FrameSplitter::Result::kError) {
      c->stats.protocol_errors++;
      c->dead = true;
      break;
    }
    Request req;
    if (!decode_request(body, len, &req)) {
      c->stats.protocol_errors++;
      c->dead = true;
      break;
    }
    c->batch.push_back(req);
  }
  if (!c->batch.empty()) {
    execute_batch(c);
    flush_writes(c);
  }
  if (saw_eof && !c->dead) {
    // A clean close with a torn frame still buffered is a protocol error
    // worth counting; either way the connection is done.
    if (c->in.pending() != 0) c->stats.protocol_errors++;
    c->dead = true;
  }
}

void NetServer::execute_batch(Conn* c) {
  const uint64_t t0 = obs::now_ns();
  auto& m = *map_;
  auto& st = c->stats;
  // ONE bracket for the whole pipeline: this is the amortization the
  // networked front end exists to measure. The bracket opens only after
  // the socket read completed and closes before any write — it is never
  // held across a syscall that can block.
  m.batch_begin();
  for (const Request& req : c->batch) {
    switch (req.op) {
      case Op::kPing: {
        st.pings++;
        encode_response(Response{Status::kPong, 0}, c->out);
        break;
      }
      case Op::kGet: {
        st.gets++;
        uint64_t val = 0;
        if (m.get(req.key, &val)) {
          st.get_hits++;
          encode_response(Response{Status::kHit, val}, c->out);
        } else {
          encode_response(Response{Status::kMiss, 0}, c->out);
        }
        break;
      }
      case Op::kPut: {
        st.puts++;
        const ds::PutResult r = m.put(req.key, req.val);
        if (r == ds::PutResult::kReplaced) {
          st.put_replaced++;
          encode_response(Response{Status::kReplaced, 0}, c->out);
        } else {
          encode_response(Response{Status::kInserted, 0}, c->out);
        }
        break;
      }
      case Op::kDel: {
        st.dels++;
        if (m.remove(req.key)) {
          st.del_hits++;
          encode_response_removed(c->out);
        } else {
          encode_response(Response{Status::kMiss, 0}, c->out);
        }
        break;
      }
    }
  }
  m.batch_end();
  obs::record_latency(obs::LatOp::kNetBatch, obs::now_ns() - t0);
  const uint64_t n = c->batch.size();
  st.ops += n;
  st.batches++;
  if (n > st.max_batch) st.max_batch = n;
}

void NetServer::flush_writes(Conn* c) {
  while (c->out_pos < c->out.size()) {
    // MSG_NOSIGNAL: a client that vanished mid-response is an EPIPE (we
    // close the conn), never a process-wide SIGPIPE.
    const ssize_t w = send(c->fd, c->out.data() + c->out_pos,
                           c->out.size() - c->out_pos, MSG_NOSIGNAL);
    if (w > 0) {
      c->out_pos += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c->want_write) {
        c->want_write = true;
        update_interest(c);
      }
      return;
    }
    c->dead = true;  // hard write error (EPIPE etc.)
    return;
  }
  // Fully drained: reclaim the buffer and drop EPOLLOUT interest.
  c->out.clear();
  c->out_pos = 0;
  if (c->want_write) {
    c->want_write = false;
    update_interest(c);
  }
}

void NetServer::update_interest(Conn* c) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP |
              (c->want_write ? EPOLLOUT : 0u);
  ev.data.ptr = c;
  (void)epoll_ctl(workers_[c->worker]->epfd, EPOLL_CTL_MOD, c->fd, &ev);
}

void NetServer::destroy_conn(Conn* c) {
  Worker& wk = *workers_[c->worker];
  const int fd = c->fd;
  (void)epoll_ctl(wk.epfd, EPOLL_CTL_DEL, fd, nullptr);
  {
    std::lock_guard<std::mutex> lk(wk.mu);
    for (auto it = wk.conns.begin(); it != wk.conns.end(); ++it) {
      if (it->get() == c) {
        wk.closed_total.accumulate(c->stats);
        wk.conns.erase(it);
        break;
      }
    }
  }
  // Close only once the stats are folded in under the lock: a peer that
  // sees EOF and then reads total_stats() is ordered after this worker's
  // last write to them.
  close(fd);
}

service::ConnectionStats NetServer::total_stats() const {
  service::ConnectionStats total;
  for (const auto& wk : workers_) {
    std::lock_guard<std::mutex> lk(wk->mu);
    total.accumulate(wk->closed_total);
    for (const auto& c : wk->conns) total.accumulate(c->stats);
  }
  return total;
}

}  // namespace pop::net
