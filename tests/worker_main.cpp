// Shared main() of the test suites whose binary doubles as a dispatch worker
// (fedhisyn_add_test(... CUSTOM_MAIN)): the process backend self-execs the
// running binary with --worker-cell, and ServeWorker (tests/serve_worker.hpp)
// self-execs it with --serve.  Either flag turns the binary into that worker
// instead of running the suites.
#include <gtest/gtest.h>

#include <string>

#include "exp/dispatch.hpp"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--worker-cell") {
      return fedhisyn::exp::worker_cell_main();
    }
    if (std::string(argv[i]) == "--serve" && i + 1 < argc) {
      return fedhisyn::exp::serve_main(argv[i + 1]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
