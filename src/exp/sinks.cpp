#include "exp/sinks.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/json.hpp"

namespace fedhisyn::exp {

namespace {

std::string fmt_acc(float value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(value));
  return buf;
}

}  // namespace

std::string to_jsonl_line(const CellResult& cell) {
  const ExperimentSpec& spec = cell.spec;
  const core::ExperimentResult& result = cell.result;
  std::ostringstream out;
  out << "{\"label\":\"" << json::escape(spec.label()) << "\""
      << ",\"dataset\":\"" << json::escape(spec.build.dataset) << "\""
      << ",\"partition\":\"" << json::escape(spec.partition_label()) << "\""
      << ",\"participation\":" << fmt_g(spec.opts.participation)
      << ",\"method\":\"" << json::escape(spec.method) << "\""
      << ",\"clusters\":" << spec.opts.clusters
      << ",\"devices\":" << spec.build.scale.devices
      << ",\"rounds\":" << spec.build.scale.rounds
      << ",\"seed\":" << spec.opts.seed
      << ",\"target\":" << fmt_acc(spec.resolved_target())
      << ",\"eval_every\":" << spec.eval_every
      << ",\"final_accuracy\":" << fmt_acc(result.final_accuracy)
      << ",\"best_accuracy\":" << fmt_acc(result.best_accuracy)
      << ",\"comm_to_target\":";
  if (result.comm_to_target.has_value()) {
    out << fmt_g(*result.comm_to_target);
  } else {
    out << "null";
  }
  out << ",\"rounds_to_target\":";
  if (result.rounds_to_target.has_value()) {
    out << *result.rounds_to_target;
  } else {
    out << "null";
  }
  out << ",\"cell\":\"" << json::escape(result.table_cell()) << "\""
      << ",\"key\":\"" << json::escape(spec.to_key()) << "\"}";
  return out.str();
}

std::string csv_header() {
  return "label,dataset,partition,participation,method,clusters,devices,rounds,"
         "seed,target,final_accuracy,best_accuracy,comm_to_target,"
         "rounds_to_target";
}

std::string to_csv_row(const CellResult& cell) {
  const ExperimentSpec& spec = cell.spec;
  const core::ExperimentResult& result = cell.result;
  std::ostringstream out;
  out << spec.label() << "," << spec.build.dataset << "," << spec.partition_label()
      << "," << fmt_g(spec.opts.participation) << "," << spec.method << ","
      << spec.opts.clusters << "," << spec.build.scale.devices << ","
      << spec.build.scale.rounds << "," << spec.opts.seed << ","
      << fmt_acc(spec.resolved_target()) << "," << fmt_acc(result.final_accuracy)
      << "," << fmt_acc(result.best_accuracy) << ",";
  if (result.comm_to_target.has_value()) out << fmt_g(*result.comm_to_target);
  out << ",";
  if (result.rounds_to_target.has_value()) out << *result.rounds_to_target;
  return out.str();
}

void write_lines_atomic(const std::string& path, const std::vector<std::string>& lines) {
  // tmp + fsync + rename + fsync(dir): rename alone makes the replacement
  // atomic against concurrent readers, but not against a host crash — an
  // unsynced tmp can be renamed over good data and then land empty/truncated
  // after the crash, silently poisoning a later --resume.  The fsync before
  // the rename pins the bytes; the directory fsync after pins the rename.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  FEDHISYN_CHECK_MSG(fd >= 0, "cannot open '" << tmp << "' for writing: "
                                              << std::strerror(errno));
  std::string data;
  for (const auto& line : lines) {
    data += line;
    data += '\n';
  }
  const auto fail = [&](const char* what) {
    const int saved_errno = errno;
    ::close(fd);
    ::unlink(tmp.c_str());  // never leave a half-written tmp behind
    FEDHISYN_CHECK_MSG(false, what << " '" << tmp
                                   << "': " << std::strerror(saved_errno));
  };
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("short write to");
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("cannot fsync");
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved_errno = errno;
    ::unlink(tmp.c_str());
    FEDHISYN_CHECK_MSG(false, "cannot rename '" << tmp << "' over '" << path
                                                << "': "
                                                << std::strerror(saved_errno));
  }
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  FEDHISYN_CHECK_MSG(dir_fd >= 0, "cannot open directory '" << dir
                                                            << "' to fsync the rename: "
                                                            << std::strerror(errno));
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  FEDHISYN_CHECK_MSG(rc == 0, "cannot fsync directory '" << dir
                                                         << "': " << std::strerror(errno));
}

bool is_csv_path(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

void write_results(const std::string& path, const std::vector<CellResult>& cells) {
  const bool csv = is_csv_path(path);
  std::vector<std::string> lines;
  lines.reserve(cells.size() + (csv ? 1 : 0));
  if (csv) lines.push_back(csv_header());
  for (const auto& cell : cells) {
    lines.push_back(csv ? to_csv_row(cell) : to_jsonl_line(cell));
  }
  write_lines_atomic(path, lines);
}

void append_result_line(const std::string& path, const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  FEDHISYN_CHECK_MSG(fd >= 0, "cannot open '" << path << "' for appending: "
                                              << std::strerror(errno));
  const std::string data = line + "\n";
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      FEDHISYN_CHECK_MSG(false, "append to '" << path
                                              << "' failed: " << std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

void terminate_partial_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return;
  in.seekg(0, std::ios::end);
  if (in.tellg() <= 0) return;
  in.seekg(-1, std::ios::end);
  char last = '\n';
  in.get(last);
  in.close();
  if (last != '\n') append_result_line(path, "");
}

std::vector<ScannedResult> scan_results(const std::string& path) {
  std::vector<ScannedResult> scanned;
  std::ifstream in(path);
  if (!in.good()) return scanned;
  std::string line;
  std::size_t line_number = 0;
  // A truncated *trailing* line is the expected debris of an interrupted
  // append and is skipped silently; an *unparseable* line followed by
  // well-formed lines means the middle of the file was corrupted (torn
  // rewrite, disk fault) and deserves a loud warning — those cells silently
  // rerun.  Well-formed JSON that merely lacks our keys (another schema's
  // line, a foreign tool's output) is not corruption and stays silent.
  std::size_t first_bad_line = 0;  // 1-based; 0 = none seen yet
  bool warned_mid_file = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto doc = json::try_parse(line);
    if (!doc.has_value() || doc->kind != json::Value::Kind::kObject) {
      if (first_bad_line == 0) first_bad_line = line_number;
      continue;
    }
    const json::Value* key = doc->find("key");
    const json::Value* final_acc = doc->find("final_accuracy");
    const json::Value* best_acc = doc->find("best_accuracy");
    const json::Value* comm = doc->find("comm_to_target");
    const json::Value* rounds = doc->find("rounds_to_target");
    if (key == nullptr || final_acc == nullptr || best_acc == nullptr ||
        comm == nullptr || rounds == nullptr) {
      continue;
    }
    if (first_bad_line != 0 && !warned_mid_file) {
      warned_mid_file = true;
      std::fprintf(stderr,
                   "warning: '%s' line %zu is malformed but later lines parse — "
                   "mid-file corruption, not an interrupted tail; the affected "
                   "cell(s) will rerun\n",
                   path.c_str(), first_bad_line);
    }
    ScannedResult result;
    result.key = key->as_string();
    result.line = line;
    result.final_accuracy = final_acc->as_float();
    result.best_accuracy = best_acc->as_float();
    if (!comm->is_null()) result.comm_to_target = comm->as_double();
    if (!rounds->is_null()) result.rounds_to_target = static_cast<int>(rounds->as_long());
    scanned.push_back(std::move(result));
  }
  return scanned;
}

}  // namespace fedhisyn::exp
