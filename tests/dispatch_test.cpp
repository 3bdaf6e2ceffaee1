// Tests for the process- and host-level grid dispatch subsystem: the
// ExperimentSpec JSON wire codec (exact round-trip across every grid axis),
// thread- vs process- vs tcp- vs serial-backend byte-identity, crash
// isolation (a worker killed mid-cell — child process or remote connection —
// is retried and the sweep survives), hung-worker deadlines
// (FEDHISYN_CELL_TIMEOUT_S kills and retries under crash accounting),
// --resume semantics, and the atomic / append-safe result sinks.
//
// This binary links tests/worker_main.cpp: invoked with --worker-cell it
// becomes a dispatch worker (the process backend self-execs the running
// binary, i.e. this test), with --serve a resident TCP worker (the tcp tests
// spawn two of themselves on ephemeral ports), otherwise it runs the gtest
// suites.
#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/net.hpp"
#include "common/subprocess.hpp"
#include "exp/dispatch.hpp"
#include "exp/driver.hpp"
#include "exp/grid.hpp"
#include "exp/scheduler.hpp"
#include "exp/sinks.hpp"
#include "scoped_env.hpp"
#include "serve_worker.hpp"

namespace fedhisyn::exp {
namespace {

/// A grid whose cells run in well under a second: 6 devices, 2 rounds.
ExperimentGrid tiny_grid() {
  ExperimentGrid grid;
  grid.base().with_seed(11);
  grid.base().build.scale.devices = 6;
  grid.base().build.scale.train_samples_per_device = 20;
  grid.base().build.scale.test_samples = 60;
  grid.base().build.scale.rounds = 2;
  grid.base().build.mlp_hidden = {8};
  grid.base().opts.local_epochs = 1;
  grid.base().opts.batch_size = 10;
  grid.base().opts.clusters = 2;
  grid.base().target = 0.999f;
  return grid;
}

/// `name`'s per-cell counter delta in the cell's telemetry block (0 when the
/// counter did not move in that cell).
std::uint64_t cell_counter(const CellResult& cell, const std::string& name) {
  for (const auto& [counter, delta] : cell.telemetry.counters) {
    if (counter == name) return delta;
  }
  return 0;
}

/// True when this process has no child left, reaped or not: every worker
/// the dispatcher spawned was also waited for.
bool no_children_left() {
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_file(const std::string& path, const std::vector<std::string>& lines,
                bool trailing_newline = true) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i];
    if (i + 1 < lines.size() || trailing_newline) out << "\n";
  }
}

// ------------------------------------------------------------ wire codec --

TEST(SpecJson, RoundTripAcrossEveryGridAxis) {
  ExperimentGrid grid;
  grid.base().build.scale.devices = 9;
  grid.base().build.scale.rounds = 3;
  grid.base().build.mlp_hidden = {16, 8};
  grid.datasets({"mnist", "cifar100"})
      .participations({1.0, 0.1})
      .partitions({{true, 0.0}, {false, 0.3}})
      .methods({"FedAvg", "FedHiSyn"})
      .clusters({1, 5})
      .heterogeneity_ratios({2.0, 10.0})
      .seeds({11, 17});
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 2u * 2 * 2 * 2 * 2 * 2 * 2);
  for (const auto& spec : specs) {
    const std::string wire = spec.to_json();
    const ExperimentSpec back = ExperimentSpec::from_json(wire);
    EXPECT_EQ(back.to_json(), wire);
    EXPECT_EQ(back.to_key(), spec.to_key());
    EXPECT_EQ(back.build_key(), spec.build_key());
    EXPECT_EQ(back.label(), spec.label());
  }
}

TEST(SpecJson, RoundTripPreservesEveryOffDefaultKnob) {
  ExperimentSpec spec;
  spec.with_seed(12345);
  spec.build.dataset = "emnist";
  spec.build.scale = {33, 77, 123, 19};
  spec.build.partition = {false, 0.61803398874989484};  // needs %.17g exactness
  spec.build.fleet_kind = core::FleetKind::kHomogeneous;
  spec.build.fleet_ratio_h = 3.5;
  spec.build.use_cnn = true;
  spec.build.mlp_hidden = {};
  spec.method = "SCAFFOLD";
  spec.opts.lr = 0.123456789f;
  spec.opts.batch_size = 7;
  spec.opts.local_epochs = 3;
  spec.opts.participation = 1.0 / 3.0;
  spec.opts.clusters = 4;
  spec.opts.aggregation = core::AggregationRule::kTimeWeighted;
  spec.opts.ring_order = sim::RingOrder::kLargeToSmall;
  spec.opts.direct_use = false;
  spec.opts.prox_mu = 0.007f;
  spec.opts.momentum = 0.9f;
  spec.opts.async_alpha = 0.125f;
  spec.target = 0.87654321f;
  spec.eval_every = 4;

  const ExperimentSpec back = ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(back.to_json(), spec.to_json());
  EXPECT_EQ(back.to_key(), spec.to_key());
  EXPECT_EQ(back.build.partition.beta, spec.build.partition.beta);  // bit-exact
  EXPECT_EQ(back.opts.lr, spec.opts.lr);
  EXPECT_EQ(back.opts.participation, spec.opts.participation);
  EXPECT_EQ(back.build.fleet_kind, core::FleetKind::kHomogeneous);
  EXPECT_FALSE(back.opts.direct_use);
  EXPECT_TRUE(back.build.mlp_hidden.empty());
}

TEST(SpecJson, MissingAndUnknownFieldsAreRejected) {
  EXPECT_THROW(ExperimentSpec::from_json("{}"), CheckError);
  EXPECT_THROW(ExperimentSpec::from_json("not json"), CheckError);
  ExperimentSpec spec;
  std::string wire = spec.to_json();
  wire.insert(wire.size() - 1, ",\"from_the_future\":1");
  EXPECT_THROW(ExperimentSpec::from_json(wire), CheckError);
}

// -------------------------------------------------------------- dispatch --

TEST(Dispatch, ProcessMatchesThreadAndSerialByteIdentical) {
  auto grid = tiny_grid();
  grid.datasets({"mnist"}).methods({"FedHiSyn", "FedAvg", "SCAFFOLD", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options serial_options;
  serial_options.jobs = 1;
  serial_options.backend = CellBackend::kThread;
  const auto serial = GridScheduler(serial_options).run(specs);

  GridScheduler::Options thread_options;
  thread_options.jobs = 2;
  thread_options.backend = CellBackend::kThread;
  const auto threaded = GridScheduler(thread_options).run(specs);

  GridScheduler::Options process_options;
  process_options.jobs = 2;
  process_options.backend = CellBackend::kProcess;
  const auto process = GridScheduler(process_options).run(specs);

  EXPECT_TRUE(no_children_left());  // a clean sweep reaps every worker
  ASSERT_EQ(serial.size(), process.size());
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Byte-level: the exact strings the --out sinks would emit.
    EXPECT_EQ(to_jsonl_line(serial[i]), to_jsonl_line(threaded[i])) << i;
    EXPECT_EQ(to_jsonl_line(serial[i]), to_jsonl_line(process[i])) << i;
    EXPECT_EQ(to_csv_row(serial[i]), to_csv_row(process[i])) << i;
    // The wire codec ships the full trajectory bit-exactly.
    ASSERT_EQ(serial[i].result.history.size(), process[i].result.history.size()) << i;
    for (std::size_t r = 0; r < serial[i].result.history.size(); ++r) {
      EXPECT_EQ(serial[i].result.history[r].round, process[i].result.history[r].round);
      EXPECT_EQ(serial[i].result.history[r].accuracy,
                process[i].result.history[r].accuracy);
      EXPECT_EQ(serial[i].result.history[r].comm_rounds,
                process[i].result.history[r].comm_rounds);
      EXPECT_EQ(serial[i].result.history[r].d2d_transfers,
                process[i].result.history[r].d2d_transfers);
    }
  }
}

TEST(Dispatch, DisabledBuildCacheIsByteIdenticalToTheDefault) {
  // Two interleaved builds (seeds 11/17) across four cells: with the cache
  // disabled every cell rebuilds from scratch, with the default budget the
  // worker holds both builds warm — the output files must not be able to
  // tell the difference.
  auto grid_a = tiny_grid();
  grid_a.methods({"FedAvg", "FedHiSyn"});
  auto grid_b = tiny_grid();
  grid_b.base().with_seed(17);
  grid_b.methods({"FedAvg", "FedHiSyn"});
  const auto cells_a = grid_a.expand();
  const auto cells_b = grid_b.expand();
  std::vector<ExperimentSpec> specs = {cells_a[0], cells_b[0], cells_a[1],
                                       cells_b[1]};

  GridScheduler::Options options;
  options.jobs = 1;
  options.backend = CellBackend::kProcess;

  std::vector<CellResult> cold;
  {
    ScopedEnv disable("FEDHISYN_BUILD_CACHE_MB", "0");
    cold = GridScheduler(options).run(specs);
  }
  const auto warm = GridScheduler(options).run(specs);

  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(cold[i]), to_jsonl_line(warm[i])) << i;
    EXPECT_EQ(to_csv_row(cold[i]), to_csv_row(warm[i])) << i;
  }
  // The worker's per-cell build_cache.* deltas confirm the two runs really
  // exercised different paths: all cold misses vs affinity-served hits.
  std::uint64_t cold_misses = 0;
  for (const auto& cell : cold) {
    EXPECT_EQ(cell_counter(cell, "build_cache.hits"), 0u);
    EXPECT_EQ(cell_counter(cell, "build_cache.misses"), 1u);
    cold_misses += cell_counter(cell, "build_cache.misses");
  }
  EXPECT_EQ(cold_misses, 4u);
  EXPECT_EQ(cell_counter(warm[2], "build_cache.hits"), 1u);
  EXPECT_EQ(cell_counter(warm[3], "build_cache.hits"), 1u);
}

TEST(Dispatch, CrashedWorkerIsRetriedAndTheSweepSurvives) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  // Workers abort the FedAvg cell on attempt 1; attempt 2 must heal it.
  ScopedEnv crash("FEDHISYN_TEST_CRASH", "FedAvg:1");
  GridScheduler::Options process_options;
  process_options.jobs = 2;
  process_options.backend = CellBackend::kProcess;
  const auto process = GridScheduler(process_options).run(specs);

  ASSERT_EQ(clean.size(), process.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(process[i])) << i;
  }
}

TEST(Dispatch, UnhealableCrashExhaustsRetriesAndThrows) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  ScopedEnv crash("FEDHISYN_TEST_CRASH", "FedAvg");  // crashes on every attempt
  GridScheduler::Options options;
  options.jobs = 1;
  options.backend = CellBackend::kProcess;
  options.max_attempts = 2;
  try {
    GridScheduler(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("FedAvg"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("giving up"), std::string::npos);
  }
}

TEST(Dispatch, MalformedFaultKnobFailsTheSweepNamingTheVariable) {
  // A bad attempt bound must not read as a label that matches nothing (which
  // would silently inject no crash): the worker check-fails, and the error
  // reaches the coordinator as the cell's ok:false reply.
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  ScopedEnv crash("FEDHISYN_TEST_CRASH", "FedAvg:abc");
  GridScheduler::Options options;
  options.backend = CellBackend::kProcess;
  try {
    GridScheduler(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("FEDHISYN_TEST_CRASH"), std::string::npos);
  }
}

TEST(Dispatch, WorkerOfAnotherProtocolRevisionIsRefusedAtTheHello) {
  // A worker binary that greets with revision 1 and then waits for specs:
  // the coordinator must refuse it before sending any work.
  const std::string script = "dispatch_test_proto1_worker.sh";
  write_file(script, {"#!/bin/sh",
                      "echo '{\"hello\":\"fedhisyn-worker\",\"proto\":1}'",
                      "exec cat >/dev/null"});
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  GridScheduler::Options options;
  options.backend = CellBackend::kProcess;
  options.worker_binary = "./" + script;
  try {
    GridScheduler(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("protocol revision 1"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(no_children_left());
  std::remove(script.c_str());
}

TEST(Dispatch, DeterministicCellFailurePropagatesWithoutRetry) {
  auto grid = tiny_grid();
  grid.methods({"FedBogus"});
  GridScheduler::Options options;
  options.jobs = 1;
  options.backend = CellBackend::kProcess;
  try {
    GridScheduler(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("failed in worker"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("FedBogus"), std::string::npos);
  }
}

TEST(Dispatch, MaxAttemptsResolvesFromEnv) {
  EXPECT_EQ(max_attempts_from_env(), 3);  // default: 2 retries
  {
    ScopedEnv retries("FEDHISYN_WORKER_RETRIES", "5");
    EXPECT_EQ(max_attempts_from_env(), 6);
  }
  {
    ScopedEnv none("FEDHISYN_WORKER_RETRIES", "0");
    EXPECT_EQ(max_attempts_from_env(), 1);
  }
  // A negative count is a typo, not a request for the default.
  ScopedEnv negative("FEDHISYN_WORKER_RETRIES", "-1");
  EXPECT_THROW(max_attempts_from_env(), CheckError);
}

TEST(Dispatch, CellTimeoutResolvesFromEnv) {
  EXPECT_EQ(cell_timeout_from_env(), 0.0);  // default: no deadline
  {
    ScopedEnv timeout("FEDHISYN_CELL_TIMEOUT_S", "2.5");
    EXPECT_EQ(cell_timeout_from_env(), 2.5);
  }
  {
    // "5m" must not quietly become a 5-second deadline that kills and
    // retries every longer cell until the sweep fails.
    ScopedEnv minutes("FEDHISYN_CELL_TIMEOUT_S", "5m");
    EXPECT_THROW(cell_timeout_from_env(), CheckError);
  }
  ScopedEnv nonsense("FEDHISYN_CELL_TIMEOUT_S", "-3");
  EXPECT_EQ(cell_timeout_from_env(), 0.0);  // non-positive = off
}

TEST(Dispatch, HungWorkerIsKilledAtTheDeadlineAndRetried) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  // Workers wedge (sleep well past the deadline) on the FedAvg cell's first
  // attempt; the dispatcher must SIGKILL at the deadline and heal on attempt
  // 2 under the same accounting as a crash.
  ScopedEnv hang("FEDHISYN_TEST_HANG", "FedAvg:1:600");
  GridScheduler::Options options;
  options.jobs = 2;
  options.backend = CellBackend::kProcess;
  options.cell_timeout_s = 1.0;
  const auto hung = GridScheduler(options).run(specs);
  // The killed worker was reaped, not left behind as a zombie.
  EXPECT_TRUE(no_children_left());

  ASSERT_EQ(clean.size(), hung.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(hung[i])) << i;
  }
}

TEST(Dispatch, HungWorkerExhaustsAttemptsWhenItNeverHeals) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  ScopedEnv hang("FEDHISYN_TEST_HANG", "FedAvg:600:600");  // every attempt wedges
  GridScheduler::Options options;
  options.jobs = 1;
  options.backend = CellBackend::kProcess;
  options.max_attempts = 2;
  options.cell_timeout_s = 0.3;
  try {
    GridScheduler(options).run(grid.expand());
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("giving up"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos);
  }
}

// --------------------------------------------------------------- tcp --

TEST(TcpDispatch, MatchesSerialByteIdenticalAcrossTwoServeWorkers) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "SCAFFOLD", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options serial_options;
  serial_options.jobs = 1;
  serial_options.backend = CellBackend::kThread;
  const auto serial = GridScheduler(serial_options).run(specs);

  ServeWorker worker_a;
  ServeWorker worker_b;
  GridScheduler::Options tcp_options;
  tcp_options.backend = CellBackend::kTcp;
  tcp_options.worker_hosts = worker_a.endpoint() + "," + worker_b.endpoint();
  const auto tcp = GridScheduler(tcp_options).run(specs);

  ASSERT_EQ(serial.size(), tcp.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(serial[i]), to_jsonl_line(tcp[i])) << i;
    EXPECT_EQ(to_csv_row(serial[i]), to_csv_row(tcp[i])) << i;
  }
}

TEST(TcpDispatch, WorkerDroppingItsConnectionMidCellIsRetriedElsewhere) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "FedAT"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  // Both remote workers abort the FedAvg cell on attempt 1 — the coordinator
  // sees the connection drop mid-cell, fails the reconnect (the process is
  // gone), retires the slot and reassigns the cell to the survivor, whose
  // attempt-2 request runs clean.
  ServeWorker volatile_a({"FEDHISYN_TEST_CRASH=FedAvg:1"});
  ServeWorker volatile_b({"FEDHISYN_TEST_CRASH=FedAvg:1"});
  GridScheduler::Options options;
  options.backend = CellBackend::kTcp;
  options.worker_hosts = volatile_a.endpoint() + "," + volatile_b.endpoint();
  const auto tcp = GridScheduler(options).run(specs);

  ASSERT_EQ(clean.size(), tcp.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(tcp[i])) << i;
  }
}

TEST(TcpDispatch, HungRemoteWorkerIsDisconnectedAtTheDeadlineAndRetried) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  // The finite 2s hang lets the wedged worker eventually wake, notice its
  // dead connection and accept fresh work; the 0.5s deadline fires far
  // earlier, so the cell reruns on the other worker first.
  ServeWorker sleepy_a({"FEDHISYN_TEST_HANG=FedAvg:1:2"});
  ServeWorker sleepy_b({"FEDHISYN_TEST_HANG=FedAvg:1:2"});
  GridScheduler::Options options;
  options.backend = CellBackend::kTcp;
  options.worker_hosts = sleepy_a.endpoint() + "," + sleepy_b.endpoint();
  options.cell_timeout_s = 0.5;
  const auto tcp = GridScheduler(options).run(specs);

  ASSERT_EQ(clean.size(), tcp.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(tcp[i])) << i;
  }
}

TEST(TcpDispatch, DeadHostAtStartupIsRetiredAndTheSweepCompletes) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg"});
  const auto specs = grid.expand();

  GridScheduler::Options clean_options;
  clean_options.jobs = 1;
  clean_options.backend = CellBackend::kThread;
  const auto clean = GridScheduler(clean_options).run(specs);

  ServeWorker alive;
  GridScheduler::Options options;
  options.backend = CellBackend::kTcp;
  // Port 1 on loopback refuses instantly; the good worker carries the sweep.
  options.worker_hosts = alive.endpoint() + ",127.0.0.1:1";
  options.connect_timeout_s = 0.3;
  const auto tcp = GridScheduler(options).run(specs);

  ASSERT_EQ(clean.size(), tcp.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(to_jsonl_line(clean[i]), to_jsonl_line(tcp[i])) << i;
  }
}

TEST(TcpDispatch, NoWorkersConfiguredCheckFails) {
  auto grid = tiny_grid();
  grid.methods({"FedAvg"});
  GridScheduler::Options options;  // no worker_hosts
  options.backend = CellBackend::kTcp;
  EXPECT_THROW(GridScheduler(options).run(grid.expand()), CheckError);
}

TEST(TcpDispatch, HostsResolveFromTheWorkersList) {
  // Spaces after commas are stripped by net::parse_host_list — " hostB"
  // would otherwise fail resolution at sweep startup.
  const auto hosts = worker_endpoints("hostA:7800, hostB:7801");
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0].host, "hostA");
  EXPECT_EQ(hosts[0].port, 7800);
  EXPECT_EQ(hosts[1].host, "hostB");
  EXPECT_EQ(hosts[1].port, 7801);
  // An empty --workers list: no endpoint to dispatch to.
  EXPECT_THROW(worker_endpoints(""), CheckError);
}

// ---------------------------------------------------------------- resume --

TEST(RunGrid, ResumeSkipsCompletedCellsAndReproducesTheFileByteExactly) {
  auto grid = tiny_grid();
  grid.methods({"FedHiSyn", "FedAvg", "FedAT"});
  const auto specs = grid.expand();
  const std::string full_path = "dispatch_test_full.jsonl";
  const std::string resume_path = "dispatch_test_resume.jsonl";

  GridDriverOptions full_options;
  full_options.out = full_path;
  full_options.quiet = true;
  const auto full = run_grid(specs, full_options);
  ASSERT_EQ(full.size(), specs.size());
  const auto full_lines = read_lines(full_path);
  ASSERT_EQ(full_lines.size(), specs.size());

  // Interrupted sweep: the first two cells finished, the third line was cut
  // mid-append (the scanner must skip it, not choke).
  write_file(resume_path,
             {full_lines[0], full_lines[1], full_lines[2].substr(0, 25)},
             /*trailing_newline=*/false);

  // The resumed run executes on the process backend with the two finished
  // methods booby-trapped: if --resume failed to skip them, their workers
  // would crash on every attempt and the run could not succeed.
  ScopedEnv crash("FEDHISYN_TEST_CRASH", "FedHiSyn");
  GridDriverOptions resume_options;
  resume_options.out = resume_path;
  resume_options.quiet = true;
  resume_options.resume = true;
  resume_options.scheduler.backend = CellBackend::kProcess;
  const auto resumed = run_grid(specs, resume_options);

  // Final file byte-identical to the uninterrupted sweep, results aligned.
  EXPECT_EQ(read_lines(resume_path), full_lines);
  ASSERT_EQ(resumed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(resumed[i].spec.to_key(), full[i].spec.to_key()) << i;
    EXPECT_EQ(resumed[i].result.table_cell(), full[i].result.table_cell()) << i;
  }
  // Resumed cells carry headline metrics but no trajectory.
  EXPECT_TRUE(resumed[0].result.history.empty());
  EXPECT_FALSE(resumed[2].result.history.empty());

  std::remove(full_path.c_str());
  std::remove(resume_path.c_str());
}

TEST(RunGrid, ResumeRequiresAJsonlOut) {
  GridDriverOptions options;
  options.resume = true;
  EXPECT_THROW(run_grid({}, options), CheckError);
  options.out = "results.csv";
  EXPECT_THROW(run_grid({}, options), CheckError);
}

// ----------------------------------------------------------------- sinks --

TEST(Sinks, WriteResultsIsAtomicAndLeavesNoTempFile) {
  const std::string path = "dispatch_test_atomic.jsonl";
  write_file(path, {"stale content that must fully disappear"});
  CellResult cell;
  cell.spec.build.dataset = "mnist";
  write_results(path, {cell});
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], to_jsonl_line(cell));
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0) << "leftover tmp file";
  std::remove(path.c_str());
}

TEST(Sinks, ScanResultsSkipsMalformedAndTruncatedLines) {
  const std::string path = "dispatch_test_scan.jsonl";
  CellResult cell;
  cell.spec.build.dataset = "emnist";
  cell.result.final_accuracy = 0.75f;
  cell.result.comm_to_target = 12.5;
  cell.result.rounds_to_target = 9;
  write_file(path, {to_jsonl_line(cell), "", "{\"label\":\"trunc",
                    "not json at all"});
  const auto scanned = scan_results(path);
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_EQ(scanned[0].key, cell.spec.to_key());
  EXPECT_EQ(scanned[0].line, to_jsonl_line(cell));
  EXPECT_FLOAT_EQ(scanned[0].final_accuracy, 0.75f);
  ASSERT_TRUE(scanned[0].comm_to_target.has_value());
  EXPECT_DOUBLE_EQ(*scanned[0].comm_to_target, 12.5);
  ASSERT_TRUE(scanned[0].rounds_to_target.has_value());
  EXPECT_EQ(*scanned[0].rounds_to_target, 9);
  EXPECT_TRUE(scan_results("no_such_file.jsonl").empty());
  std::remove(path.c_str());
}

TEST(Sinks, ScanResultsWarnsOnMidFileCorruptionButNotOnATruncatedTail) {
  const std::string path = "dispatch_test_midfile.jsonl";
  CellResult first;
  first.spec.build.dataset = "mnist";
  CellResult second;
  second.spec.build.dataset = "emnist";

  // Truncated *tail*: the normal debris of an interrupted append — silent.
  write_file(path, {to_jsonl_line(first), "{\"label\":\"trunc"});
  testing::internal::CaptureStderr();
  EXPECT_EQ(scan_results(path).size(), 1u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Well-formed JSON from a foreign schema is not corruption: skipped, but
  // silently, even with good lines after it.
  write_file(path, {to_jsonl_line(first), "{\"other_tool\":true}",
                    to_jsonl_line(second)});
  testing::internal::CaptureStderr();
  EXPECT_EQ(scan_results(path).size(), 2u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Bad line *followed by* a well-formed one: mid-file corruption — loud.
  write_file(path, {to_jsonl_line(first), "{\"label\":\"trunc",
                    to_jsonl_line(second)});
  testing::internal::CaptureStderr();
  const auto scanned = scan_results(path);
  const std::string warning = testing::internal::GetCapturedStderr();
  ASSERT_EQ(scanned.size(), 2u);  // the good lines still parse
  EXPECT_EQ(scanned[1].key, second.spec.to_key());
  EXPECT_NE(warning.find("mid-file corruption"), std::string::npos) << warning;
  EXPECT_NE(warning.find("line 2"), std::string::npos) << warning;
  std::remove(path.c_str());
}

TEST(Sinks, TerminatePartialLineClosesAnInterruptedAppend) {
  const std::string path = "dispatch_test_partial.jsonl";
  write_file(path, {"{\"complete\":1}", "{\"trunc"}, /*trailing_newline=*/false);
  terminate_partial_line(path);
  // The partial line now ends in a newline: a fresh append cannot glue onto
  // it and produce a second unparseable line.
  append_result_line(path, "{\"fresh\":2}");
  EXPECT_EQ(read_lines(path), (std::vector<std::string>{"{\"complete\":1}",
                                                        "{\"trunc", "{\"fresh\":2}"}));
  // Idempotent on a well-formed file, no-op on a missing one.
  terminate_partial_line(path);
  EXPECT_EQ(read_lines(path).size(), 3u);
  terminate_partial_line("no_such_file.jsonl");
  EXPECT_NE(::access("no_such_file.jsonl", F_OK), 0);
  std::remove(path.c_str());
}

TEST(Sinks, JsonlLineEscapesControlCharactersAndRoundTrips) {
  // A newline in a label must not split the line-oriented results file.
  CellResult cell;
  cell.spec = tiny_grid().expand().at(0);
  cell.spec.method = "a\"b\nc";
  const std::string line = to_jsonl_line(cell);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const json::Value doc = json::parse(line);
  EXPECT_EQ(doc.find("method")->as_string(), "a\"b\nc");
  EXPECT_EQ(doc.find("label")->as_string(), cell.spec.label());
  EXPECT_EQ(doc.find("key")->as_string(), cell.spec.to_key());
}

TEST(Sinks, AppendedLinesAccumulate) {
  const std::string path = "dispatch_test_append.jsonl";
  std::remove(path.c_str());
  append_result_line(path, "{\"a\":1}");
  append_result_line(path, "{\"b\":2}");
  EXPECT_EQ(read_lines(path), (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}"}));
  std::remove(path.c_str());
}

// ------------------------------------------------------------ subprocess --

TEST(Subprocess, RunsEchoLikeChildAndReportsExit) {
  Subprocess cat({"/bin/cat"}, {});
  ASSERT_TRUE(net::write_all(cat.fd(), "hello\n"));
  ::shutdown(cat.fd(), SHUT_WR);  // EOF on cat's stdin; its stdout stays open
  std::string out;
  char buf[64];
  ssize_t n;
  while ((n = ::read(cat.fd(), buf, sizeof(buf))) > 0) out.append(buf, n);
  EXPECT_EQ(out, "hello\n");
  const ExitStatus status = cat.wait();
  EXPECT_TRUE(status.clean());
  EXPECT_EQ(describe(status), "exit code 0");
}

TEST(Subprocess, WriteToADeadChildReturnsFalseInsteadOfSigpipe) {
  // The dispatch loop's send() path: a worker that died between poll rounds
  // must surface as a failed write, never as a process-killing signal or a
  // silent success — even with SIGPIPE at its default, lethal disposition.
  const auto previous = std::signal(SIGPIPE, SIG_DFL);
  Subprocess child({"/bin/sh", "-c", "exit 7"}, {});
  const ExitStatus status = child.wait();  // child is certainly gone now
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 7);
  EXPECT_EQ(describe(status), "exit code 7");
  EXPECT_FALSE(net::write_all(child.fd(), "{\"attempt\":1}\n"));
  std::signal(SIGPIPE, previous);
}

TEST(Subprocess, EnvOverridesReachTheChild) {
  Subprocess child({"/bin/sh", "-c", "printf '%s' \"$FEDHISYN_DISPATCH_TEST\""},
                   {"FEDHISYN_DISPATCH_TEST=42"});
  std::string out;
  char buf[64];
  ssize_t n;
  while ((n = ::read(child.fd(), buf, sizeof(buf))) > 0) out.append(buf, n);
  EXPECT_EQ(out, "42");
  EXPECT_TRUE(child.wait().clean());
}

}  // namespace
}  // namespace fedhisyn::exp
