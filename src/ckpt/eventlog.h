// Append-only durable event log (DESIGN.md §14).
//
// Emitted DigestEvents are framed and appended in commits: one commit
// is one write loop and one fsync for a batch of records, and it
// returns before any of its events is delivered to the sink, so after
// any crash the log is a prefix of the true emission stream.  Records
// are
//
//   [4] u32 payload length
//   [4] u32 CRC-32 over (seq bytes ++ payload)
//   [8] u64 sequence number
//   [..] payload
//
// Sequence numbers are dense from 0: record i has seq i.  A commit's
// frames are exactly the frames of one Append per record, so the bytes
// on disk do not depend on how records were grouped into commits.
//
// On open the log is scanned, and a torn or CRC-bad tail is truncated
// away.  A kill inside a commit can leave several complete frames of
// it, unsynced, followed by one torn frame; only the torn frame goes.
// The complete ones stay and count towards next_seq(): none of that
// commit's events reached the sink, and the engine's replay cursor
// keeps the resend from emitting them a second time.  A CRC-bad frame
// with data after it is refused as mid-log corruption, because that is
// bitrot, not a crash artifact.  A power loss, unlike a kill, can also
// leave damaged bytes inside the last, unsynced commit with a complete
// frame after them.  Open refuses that log the same way ("corrupt
// record at offset N").  No event of that commit was delivered, so
// truncating the file at N loses nothing the sink saw.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace sld::ckpt {

class EventLog {
 public:
  struct OpenStats {
    std::uint64_t records = 0;    // valid records found on open
    bool truncated_tail = false;  // a torn tail was cut away
  };

  // Opens (creating if absent) the log at `path`, scans it, truncates
  // any torn tail, and positions for appending.  Returns nullptr and
  // fills *error on unrecoverable problems (I/O failure, mid-log
  // corruption, non-dense sequence numbers).
  static std::unique_ptr<EventLog> Open(const std::string& path,
                                        OpenStats* stats, std::string* error);

  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // One commit: appends `payloads` as records first_seq, first_seq + 1,
  // ... with one write loop and one fsync.  `first_seq` must equal
  // next_seq(); a wrong one writes nothing.  An empty batch writes and
  // syncs nothing.  Reports the fsync duration in seconds through
  // *fsync_seconds when non-null (the eventlog_fsync_seconds
  // histogram).  On a failed write or fsync next_seq() stays put.
  bool AppendBatch(std::uint64_t first_seq,
                   std::span<const std::string_view> payloads,
                   double* fsync_seconds, std::string* error);

  // The one-record commit.
  bool Append(std::uint64_t seq, std::string_view payload,
              double* fsync_seconds, std::string* error);

  std::uint64_t next_seq() const noexcept { return next_seq_; }

  // Streams every valid record of the log at `path` (no instance
  // needed — used by `sldigest events` and the crash tests).  Stops at
  // a torn tail without error; returns false only on I/O failure or
  // mid-log corruption.
  static bool ForEach(
      const std::string& path,
      const std::function<void(std::uint64_t seq, std::string_view payload)>&
          fn,
      std::string* error);

 private:
  EventLog(int fd, std::uint64_t next_seq)
      : fd_(fd), next_seq_(next_seq) {}

  int fd_;
  std::uint64_t next_seq_;
  std::string frames_;  // one commit's frames, reused across commits
};

}  // namespace sld::ckpt
