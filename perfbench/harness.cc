// perfbench_harness — the compiled half of the benchmark (run.py is the
// entry point).  Subcommands, each printing one JSON object on stdout:
//
//   gen   --workload W --seed S --dir D
//       Generates (once) the seeded inputs W needs under D.
//   serve --sldigest BIN --workload W --dir D --work DIR [--setup-only]
//       Starts `sldigest serve` as a durable deployment and drives it
//       with the closed-loop client until it exits after the last
//       datagram.  --setup-only stops it once it is listening.
//   learn --sldigest BIN --dir D --work DIR [--history FILE]
//       Runs `sldigest learn` at its defaults and compares the KB.
//   trace --workload W --dir D --work DIR --spans FILE --seconds S
//       The in-process traced run (trace.cc).
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "harness.h"
#include "tools/flags.h"

namespace perfbench {
namespace {
namespace fs = std::filesystem;
using sld::tools::Flags;

int Fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench_harness: %s\n", msg.c_str());
  return 1;
}

// One `sldigest serve` process: exec, wait for its "listening on" line,
// run the closed loop, reap it.
int CmdServe(const Flags& args) {
  const InputPaths paths{args.Get("dir")};
  const std::string workload = args.Get("workload");
  const std::string work = args.Get("work");
  const bool setup_only = args.Has("setup-only");
  fs::remove_all(work);
  fs::create_directories(work);
  std::vector<std::string> datagrams;
  if (!setup_only) {
    datagrams = ReadDatagrams(paths.Datagrams(workload));
    if (datagrams.empty()) {
      return Fail("no datagrams in " + paths.Datagrams(workload));
    }
  }
  const std::string max = std::to_string(setup_only ? 1 : datagrams.size());
  const std::vector<std::string> argv = {
      args.Get("sldigest"), "serve", "--configs", paths.Configs(), "--kb",
      paths.Kb(), "--port", "0", "--checkpoint-dir", work + "/ckpt",
      "--metrics-out", work + "/metrics.json", "--max-datagrams", max};
  const Child child = Spawn(argv, work + "/events.out", "");
  if (child.pid < 0) return Fail("cannot start " + argv[0]);
  const int err_fd = child.stderr_pipe;

  // Read stderr up to the listening line; a drain thread keeps the pipe
  // empty afterwards.
  std::string err_text;
  std::uint16_t port = 0;
  double listen_at = 0.0;
  constexpr std::string_view kListening = "listening on 127.0.0.1:";
  char buf[4096];
  while (port == 0) {
    const ssize_t n = ::read(err_fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    err_text.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = err_text.find(kListening);
    if (at != std::string::npos &&
        err_text.find('\n', at) != std::string::npos) {
      listen_at = Now();
      port = static_cast<std::uint16_t>(
          std::atoi(err_text.c_str() + at + kListening.size()));
    }
  }
  std::thread drain([&err_text, err_fd] {
    char b[4096];
    for (;;) {
      const ssize_t n = ::read(err_fd, b, sizeof(b));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      err_text.append(b, static_cast<std::size_t>(n));
    }
  });

  LoopStats loop;
  if (port == 0) {
    loop.error = "serve exited before listening";
  } else if (setup_only) {
    ::kill(child.pid, SIGTERM);
    loop.ok = true;
  } else {
    loop = RunClosedLoop(datagrams, port);
    if (!loop.ok) ::kill(child.pid, SIGKILL);
  }
  // Serve exits on its own once it has taken the last datagram; a hang
  // (a lost datagram) is killed at the deadline and fails the run.
  const ChildResult r = Reap(child, 120.0);
  drain.join();
  ::close(err_fd);
  WriteFile(work + "/serve.err", err_text);

  const double wall = r.exit_at - loop.first_send;
  std::string error = loop.error;
  if (error.empty() && !setup_only && !r.ok) error = "serve: " + r.error;
  std::printf(
      "%s\n",
      JsonObject()
          .Bool("ok", error.empty())
          .Str("error", error)
          .Num("setup_s", listen_at - child.exec_at)
          .Num("wall_s", setup_only ? 0.0 : wall)
          .Num("throughput_msgs_per_s",
               setup_only || wall <= 0 ? 0.0
                                       : static_cast<double>(loop.sent) / wall)
          .Num("peak_rss_mb", r.maxrss_mib)
          .Int("sent", loop.sent)
          .Int("kernel_drops", loop.kernel_drops)
          .Int("polls", loop.polls)
          .Int("starved_polls", loop.starved_polls)
          .Int("peak_backlog_bytes", loop.peak_backlog)
          .Render()
          .c_str());
  return 0;
}

int CmdLearn(const Flags& args) {
  const InputPaths paths{args.Get("dir")};
  const std::string work = args.Get("work");
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string history =
      args.Has("history") ? args.Get("history") : paths.History();
  const std::string kb = work + "/kb.txt";
  const Child child =
      Spawn({args.Get("sldigest"), "learn", "--configs", paths.Configs(),
             "--history", history, "--kb", kb},
            work + "/learn.out", work + "/learn.err");
  const ChildResult r = Reap(child, 120.0);
  const bool same_kb = ReadFile(kb) == ReadFile(paths.Kb());
  std::printf("%s\n", JsonObject()
                          .Bool("ok", r.ok)
                          .Str("error", r.error)
                          .Bool("kb_identical", same_kb)
                          .Num("wall_s", r.exit_at - child.exec_at)
                          .Num("peak_rss_mb", r.maxrss_mib)
                          .Render()
                          .c_str());
  return 0;
}

}  // namespace

// ---- JsonObject ------------------------------------------------------------

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": ";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, std::uint64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) body_ += c;
  }
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Fail("usage: perfbench_harness gen|serve|learn|trace");
  const std::string cmd = argv[1];
  const Flags args(argc, argv, 2);
  if (!args.ok()) return Fail("bad arguments");
  if (args.Has("workload") && args.Get("workload") != "sim" &&
      args.Get("workload") != "dense" && args.Get("workload") != "learn") {
    return Fail("unknown workload " + args.Get("workload"));
  }
  if (cmd == "gen") {
    const InputPaths paths{args.Get("dir")};
    const std::string workload = args.Get("workload");
    const std::uint64_t seed =
        std::strtoull(args.Get("seed").c_str(), nullptr, 10);
    if (!GenerateInputs(paths, workload, seed)) return 1;
    std::printf("%s\n", workload == "learn"
                            ? "{}"
                            : ReadFile(paths.Stats(workload)).c_str());
    return 0;
  }
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "learn") return CmdLearn(args);
  if (cmd == "trace") {
    const InputPaths paths{args.Get("dir")};
    const std::string workload = args.Get("workload");
    const double seconds = std::atof(args.Get("seconds").c_str());
    if (workload == "learn") {
      return TraceLearn(paths, args.Get("work"), args.Get("spans"), seconds);
    }
    return TraceServe(paths, workload, args.Get("work"), args.Get("spans"),
                      seconds);
  }
  return Fail("unknown subcommand " + cmd);
}
