// ServeWorker: a resident `--serve` dispatch worker for tests and benches —
// the running binary self-exec'd on an ephemeral loopback port (its main
// must route --serve to exp::serve_main, as tests/worker_main.cpp and
// exp::handle_grid_flags do), endpoint parsed back from its announce line.
// Killed and reaped on destruction.
#pragma once

#include <csignal>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/net.hpp"
#include "common/subprocess.hpp"

namespace fedhisyn::exp {

class ServeWorker {
 public:
  explicit ServeWorker(std::vector<std::string> env = {})
      : proc_(std::vector<std::string>{current_executable_path(), "--serve",
                                       "127.0.0.1:0"},
              std::move(env)) {
    net::LineReader announce(proc_.fd());
    std::string line;
    FEDHISYN_CHECK_MSG(announce.read_line(&line, net::Deadline::after(30.0)) ==
                           net::LineReader::Status::kLine,
                       "--serve worker printed no announce line");
    const std::string prefix = "fedhisyn-serve: listening on ";
    FEDHISYN_CHECK_MSG(line.rfind(prefix, 0) == 0,
                       "unexpected announce line: " << line);
    endpoint_ = line.substr(prefix.size());
  }
  ~ServeWorker() {
    proc_.kill(SIGKILL);
    proc_.wait();
  }

  /// "127.0.0.1:<port>", the form --workers takes.
  const std::string& endpoint() const { return endpoint_; }

 private:
  Subprocess proc_;
  std::string endpoint_;
};

}  // namespace fedhisyn::exp
