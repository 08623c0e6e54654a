// The closed-loop client and the child-process runner.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness.h"

namespace perfbench {
namespace {

// Reads one UDP socket's receive-queue bytes and drop counter from
// /proc/net/udp.  The file is kept open and re-read from offset 0.
class BacklogProbe {
 public:
  explicit BacklogProbe(std::uint16_t port)
      : fd_(::open("/proc/net/udp", O_RDONLY)) {
    std::snprintf(needle_, sizeof(needle_), ":%04X ", port);
  }
  ~BacklogProbe() {
    if (fd_ >= 0) ::close(fd_);
  }
  BacklogProbe(const BacklogProbe&) = delete;
  BacklogProbe& operator=(const BacklogProbe&) = delete;

  // Fields per line: sl local rem st tx_queue:rx_queue tr:when retrnsmt
  // uid timeout inode ref pointer drops.  The server socket is the
  // unconnected one bound to `port`.
  bool Read(std::uint64_t* rx_queue, std::uint64_t* drops) {
    if (fd_ < 0) return false;
    std::size_t len = 0;
    for (;;) {
      const ssize_t n = ::pread(fd_, buf_ + len, sizeof(buf_) - 1 - len,
                                static_cast<off_t>(len));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      len += static_cast<std::size_t>(n);
      if (len >= sizeof(buf_) - 1) break;
    }
    buf_[len] = '\0';
    // Skip the header line, then split each socket line on whitespace.
    for (char* line = std::strchr(buf_, '\n'); line != nullptr && line[1];
         line = std::strchr(line + 1, '\n')) {
      char* fields[13];
      int n = 0;
      char* p = line + 1;
      while (n < 13) {
        while (*p == ' ') ++p;
        if (*p == '\0' || *p == '\n') break;
        fields[n++] = p;
        while (*p != ' ' && *p != '\0' && *p != '\n') ++p;
      }
      if (n < 13) continue;
      if (std::strncmp(fields[1] + 8, needle_, 6) != 0) continue;
      if (std::strncmp(fields[2], "00000000:0000 ", 14) != 0) continue;
      *rx_queue = std::strtoull(fields[4] + 9, nullptr, 16);
      *drops = std::strtoull(fields[12], nullptr, 10);
      return true;
    }
    return false;
  }

 private:
  int fd_;
  char needle_[16];  // ":PPPP " — the local port in hex
  char buf_[1 << 16];
};

}  // namespace

LoopStats RunClosedLoop(const std::vector<std::string>& datagrams,
                        std::uint16_t port) {
  LoopStats st;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    st.error = std::string("socket/connect: ") + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return st;
  }
  BacklogProbe probe(port);
  std::uint64_t rx = 0;
  std::uint64_t drops = 0;
  if (!probe.Read(&rx, &drops)) {
    st.error = "server socket not found in /proc/net/udp";
    ::close(fd);
    return st;
  }

  std::vector<mmsghdr> hdrs(kSendBatch);
  std::vector<iovec> iovs(kSendBatch);
  const timespec pause{0, 50 * 1000};
  std::size_t next = 0;
  while (next < datagrams.size()) {
    if (!probe.Read(&rx, &drops)) {
      st.error = "server socket vanished from /proc/net/udp";
      break;
    }
    if (next > 0) {
      ++st.polls;
      if (rx == 0) ++st.starved_polls;
    }
    st.peak_backlog = std::max<std::uint64_t>(st.peak_backlog, rx);
    if (rx >= kBacklogBoundBytes) {
      ::nanosleep(&pause, nullptr);
      continue;
    }
    const std::size_t n = std::min(kSendBatch, datagrams.size() - next);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& d = datagrams[next + i];
      iovs[i].iov_base = const_cast<char*>(d.data());
      iovs[i].iov_len = d.size();
      hdrs[i] = mmsghdr{};
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
    }
    if (next == 0) st.first_send = Now();
    std::size_t done = 0;
    while (done < n) {
      const int sent = ::sendmmsg(fd, hdrs.data() + done,
                                  static_cast<unsigned>(n - done), 0);
      if (sent < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == ENOBUFS) continue;
        st.error = std::string("sendmmsg: ") + std::strerror(errno);
        ::close(fd);
        return st;
      }
      done += static_cast<std::size_t>(sent);
    }
    next += n;
    st.sent += n;
  }
  // Loopback delivery happens inside sendmmsg, so every drop the run can
  // cause is on the counter by now.
  if (probe.Read(&rx, &drops)) st.kernel_drops = drops;
  ::close(fd);
  st.ok = st.error.empty();
  return st;
}

Child Spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path, const std::string& stderr_path) {
  Child c;
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  int err_pipe[2] = {-1, -1};
  if (stderr_path.empty() && ::pipe2(err_pipe, O_CLOEXEC) != 0) return c;
  c.exec_at = Now();
  c.pid = ::fork();
  if (c.pid == 0) {
    // Dies with the harness, so a killed run leaves no server behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    constexpr int kFlags = O_WRONLY | O_CREAT | O_TRUNC;
    const int out = ::open(stdout_path.c_str(), kFlags, 0644);
    const int err = stderr_path.empty()
                        ? err_pipe[1]
                        : ::open(stderr_path.c_str(), kFlags, 0644);
    if (out < 0 || err < 0) ::_exit(127);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  if (err_pipe[1] >= 0) ::close(err_pipe[1]);
  c.stderr_pipe = err_pipe[0];
  return c;
}

ChildResult Reap(const Child& child, double timeout_s) {
  ChildResult r;
  if (child.pid < 0) {
    r.error = "cannot start the child process";
    return r;
  }
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, child.pid, 0));
  if (pidfd >= 0) {
    pollfd p{pidfd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(timeout_s * 1000)) == 0) {
      ::kill(child.pid, SIGKILL);
      r.error = "timed out";
    }
    ::close(pidfd);
  }
  rusage ru{};
  int status = 0;
  while (::wait4(child.pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.exit_at = Now();
  r.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (r.error.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    r.error = "exit status " + std::to_string(status);
  }
  r.ok = r.error.empty();
  return r;
}

}  // namespace perfbench
