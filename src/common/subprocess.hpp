// Subprocess: POSIX fork/exec with the child's stdin and stdout wired to one
// end of a Unix socketpair, the process-level half of the grid dispatch
// subsystem (exp/dispatch.*).
//
// The child inherits the parent's environment plus explicit "KEY=VALUE"
// overrides, and inherits stderr directly — worker diagnostics interleave
// with the parent's progress output instead of vanishing.  The parent's end
// of the socketpair is owned by this object: the same kind of full-duplex
// stream socket a remote worker is reached over, so callers write with
// net::write_all and signal EOF with shutdown(SHUT_WR).  The protocol
// running over it is the caller's business.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace fedhisyn {

/// Outcome of waiting on a child: exactly one of `exited` (with `code`) or a
/// terminating `signal` (0 when exited normally).
struct ExitStatus {
  bool exited = false;
  int code = 0;
  int signal = 0;

  bool clean() const { return exited && code == 0; }
};

/// "exit code 3" / "killed by signal 11 (SIGSEGV)" — for error messages.
std::string describe(const ExitStatus& status);

class Subprocess {
 public:
  /// Fork and exec `argv` (argv[0] is the binary path) with stdin/stdout on
  /// a socketpair to the parent and `env_overrides` ("KEY=VALUE") layered
  /// over the inherited environment.  Check-fails if the socketpair or fork
  /// fail; a failed exec surfaces as the child exiting with code 127.
  Subprocess(const std::vector<std::string>& argv,
             const std::vector<std::string>& env_overrides);
  /// SIGKILLs the child if it is still running, reaps it, closes fd().
  ~Subprocess();

  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  pid_t pid() const { return pid_; }
  /// Parent's end of the socketpair: writes reach the child's stdin, the
  /// child's stdout arrives as reads.
  int fd() const { return fd_; }

  /// Block until the child exits and reap it.  Idempotent.
  ExitStatus wait();

  /// True while the child has not been reaped.
  bool running() const { return pid_ > 0; }

  /// Send a signal (no-op after the child was reaped).
  void kill(int signum);

 private:
  pid_t pid_ = -1;
  int fd_ = -1;
  ExitStatus status_;
};

/// Absolute path of the running binary (/proc/self/exe), for self-exec
/// dispatch.  Check-fails if the link cannot be read.
std::string current_executable_path();

}  // namespace fedhisyn
