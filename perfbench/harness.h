// Shared pieces of the benchmark harness: workload shapes, input file
// layout, the closed-loop datagram sender, the process runner and the
// traced runs.  See NOTES.md for why each workload exists.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- Serve deployment and load model ---------------------------------------

// Serve deployment defaults the reference engine must mirror
// (`sldigest serve` flag defaults).
inline constexpr std::int64_t kHoldMs = 5000;
inline constexpr int kYear = 2009;
inline constexpr std::int64_t kIdleCloseMs = 1800 * 1000;
inline constexpr std::int64_t kRuleWindowMs = 120 * 1000;  // learn --window-s

// The closed loop keeps the server socket's kernel backlog under this
// many bytes (far below the 8 MiB receive buffer serve asks for, so the
// kernel never drops) and sends in batches of kSendBatch.
inline constexpr std::uint64_t kBacklogBoundBytes = 1u << 20;
inline constexpr std::size_t kSendBatch = 64;

// ---- Input layout (one directory per seed) ---------------------------------

struct InputPaths {
  std::string dir;
  std::string Configs() const { return dir + "/configs"; }
  std::string History() const { return dir + "/history.log"; }
  std::string Kb() const { return dir + "/kb.txt"; }
  std::string Datagrams(std::string_view w) const {
    return dir + "/" + std::string(w) + ".dgrams";
  }
  std::string Reference(std::string_view w) const {
    return dir + "/" + std::string(w) + ".ref";
  }
  std::string Stats(std::string_view w) const {
    return dir + "/" + std::string(w) + ".stats.json";
  }
};

// Generates whatever `workload` needs under `paths` that is not there
// yet.  Returns false (with a message on stderr) on failure.
bool GenerateInputs(const InputPaths& paths, const std::string& workload,
                    std::uint64_t seed);

// One datagram per line; RFC 3164 payloads hold no newline.
std::vector<std::string> ReadDatagrams(const std::string& path);
std::string ReadFile(const std::string& path);
bool WriteFile(const std::string& path, std::string_view data);

// ---- Closed-loop sender ----------------------------------------------------

struct LoopStats {
  std::uint64_t sent = 0;
  std::uint64_t polls = 0;          // backlog reads while datagrams remained
  std::uint64_t starved_polls = 0;  // ... that found the server queue empty
  std::uint64_t peak_backlog = 0;   // bytes
  std::uint64_t kernel_drops = 0;   // the server socket's drop counter
  double first_send = 0.0;          // Now() just before the first sendmmsg
  bool ok = false;
  std::string error;
};

// Sends every datagram to 127.0.0.1:port from one socket with sendmmsg,
// reading the server socket's rx_queue from /proc/net/udp before each
// batch and holding off while it is at or above kBacklogBoundBytes.
LoopStats RunClosedLoop(const std::vector<std::string>& datagrams,
                        std::uint16_t port);

// ---- Child processes -------------------------------------------------------

struct Child {
  pid_t pid = -1;
  int stderr_pipe = -1;  // read end when stderr goes to a pipe
  double exec_at = 0.0;  // Now() just before fork
};

struct ChildResult {
  bool ok = false;  // exited with status 0 before the deadline
  double exit_at = 0.0;  // Now() when the exit was reaped
  double maxrss_mib = 0.0;
  std::string error;
};

// Forks and execs argv with stdout to `stdout_path` and stderr to
// `stderr_path`, or to Child::stderr_pipe when `stderr_path` is empty.
Child Spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path, const std::string& stderr_path);
// Waits up to `timeout_s` for the child to exit (killing it at the
// deadline) and reaps it.
ChildResult Reap(const Child& child, double timeout_s);

// ---- Time and traced runs --------------------------------------------------

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-process replays with spans at the layer boundaries; each prints one
// JSON object of per-layer metrics on stdout.
int TraceServe(const InputPaths& paths, const std::string& workload,
               const std::string& work_dir, const std::string& spans_path,
               double seconds);
int TraceLearn(const InputPaths& paths, const std::string& work_dir,
               const std::string& spans_path, double seconds);

// ---- Small JSON writer -----------------------------------------------------

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, std::uint64_t v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Bool(const std::string& key, bool v);
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

}  // namespace perfbench
