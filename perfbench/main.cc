// perfbench: the repository benchmark. Runs one workload for one seed,
// checks every answer, and prints each metric by name with its unit; the
// last line of standard output is the JSON result. Normally started through
// run.py, which builds this program first.
//
//   perfbench --workload <ingest|grep_cold|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Exit status: 0 when every answer was right, 1 on a wrong answer or
// failed operation (the result line still says which), 2 on bad usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args,
               std::string* work_dir) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      *work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !work_dir->empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string work_dir;
  if (!ParseArgs(argc, argv, &args, &work_dir)) {
    std::fprintf(stderr, "usage: see the comment at the top of main.cc\n");
    return 2;
  }
  int (*run)(const perfbench::Args&, perfbench::Report*) = nullptr;
  if (args.workload == "ingest") {
    run = perfbench::RunIngest;
  } else if (args.workload == "grep_cold") {
    run = perfbench::RunGrepCold;
  } else if (args.workload == "serve_mixed") {
    run = perfbench::RunServeMixed;
  } else {
    std::fprintf(stderr, "unknown workload: %s\n",
                 args.workload.c_str());
    return 2;
  }

  namespace fs = std::filesystem;
  args.work_root = (fs::path(work_dir) / (args.workload + "-" +
                                          std::to_string(::getpid())))
                       .string();
  std::error_code ec;
  fs::remove_all(args.work_root, ec);
  fs::create_directories(args.work_root, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_root.c_str(),
                 ec.message().c_str());
    return 2;
  }

  perfbench::Report report(args.trace);
  const int status = run(args, &report);
  fs::remove_all(args.work_root, ec);
  report.Print();
  return status != 0 || report.failed() > 0 ? 1 : 0;
}
