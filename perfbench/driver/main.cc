// perfbench_driver: runs one benchmark workload's generated jobs and
// prints the raw measurements as one JSON line; perfbench/run.py turns
// them into the reported metrics.
//
//   perfbench_driver --mode=timed|traced|digests|mix --workload=W --seconds=S
//                    --nproc=N < jobs.txt
//
// stdin holds the generated job lines (`job <workload> <id> k=v ...`).
// Timed mode runs the workload's jobs untraced for S seconds and repeats
// the set-up through the run; traced mode runs the per-layer probes (see
// probes.h); digests mode runs every job once, to record the expected
// output digests; mix mode reports the state mix of serve jobs. The
// driver never sees the workload seed, only the jobs generated from it.

#include <sys/resource.h>

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "driver/jobs.h"
#include "driver/probes.h"

namespace perfbench {
namespace {

constexpr int kSetupRounds = 9;

struct Args {
  std::string mode;
  std::string workload;
  double seconds = 0.0;
  int nproc = 1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* prefix) {
      return a.substr(std::string(prefix).size());
    };
    if (a.rfind("--mode=", 0) == 0) {
      args->mode = value("--mode=");
    } else if (a.rfind("--workload=", 0) == 0) {
      args->workload = value("--workload=");
    } else if (a.rfind("--seconds=", 0) == 0) {
      args->seconds = std::stod(value("--seconds="));
    } else if (a.rfind("--nproc=", 0) == 0) {
      args->nproc = std::stoi(value("--nproc="));
    } else {
      std::cerr << "unknown argument " << a << "\n";
      return false;
    }
  }
  return (args->mode == "timed" || args->mode == "traced" ||
          args->mode == "digests" || args->mode == "mix") &&
         !args->workload.empty() && args->seconds > 0.0 && args->nproc >= 1;
}

/// Parses every job line; returns the jobs of `workload` (of every
/// workload when empty), in input order.
dynvote::Result<std::vector<JobSpec>> ParseJobs(
    const std::vector<std::string>& lines, const std::string& workload) {
  std::vector<JobSpec> jobs;
  for (const std::string& line : lines) {
    auto spec = ParseJobLine(line);
    if (!spec.ok()) return spec.status();
    if (workload.empty() || spec->workload == workload) {
      jobs.push_back(spec.MoveValue());
    }
  }
  if (jobs.empty()) {
    return dynvote::Status::InvalidArgument("no jobs for " + workload);
  }
  return jobs;
}

/// One set-up: everything a fresh process does before its first result —
/// parse the inputs, build the shared network, run one job. The first
/// job line is the workload's fixed warm-up job, the same for every
/// seed, so set-up time does not depend on the seed.
struct Setup {
  std::vector<JobSpec> jobs;
  Context ctx;
};

dynvote::Result<Setup> SetUp(const Args& args,
                             const std::vector<std::string>& lines,
                             std::vector<double>* seconds,
                             std::string* warmups) {
  const double t0 = NowSeconds();
  auto parsed = ParseJobs(lines, args.workload);
  if (!parsed.ok()) return parsed.status();
  auto made = MakeContext(args.nproc);
  if (!made.ok()) return made.status();
  Setup setup{parsed.MoveValue(), made.MoveValue()};
  const double prepared = NowSeconds() - t0;
  auto out = RunJob(setup.ctx, setup.jobs[0]);
  if (!out.ok()) return out.status();
  seconds->push_back(prepared + out->seconds);
  AppendJob(setup.jobs[0], 0.0, out, warmups);
  return setup;
}

int RunTimed(const Args& args, const std::vector<std::string>& lines) {
  // The jobs after the warm-up job form one round, which every load
  // worker repeats, each from its own offset, until the time is up.
  // Workloads whose jobs fan out over the cores get one load worker; the
  // single-threaded ones get one per core. Every worker also repeats the
  // set-up kSetupRounds times at staggered, even intervals, so the
  // set-up median spans the run and the cores, not one moment.
  const int workers = args.workload == kObjectSweep ||
                              args.workload == kCheckClosure
                          ? 1
                          : args.nproc;
  struct WorkerLog {
    std::vector<double> setup_s;
    std::string warmups;  // warm-up job records, digest-checked too
    std::string jobs;
    dynvote::Status status;
  };
  std::vector<WorkerLog> logs(static_cast<std::size_t>(workers));
  auto first_setup = SetUp(args, lines, &logs[0].setup_s, &logs[0].warmups);
  if (!first_setup.ok()) {
    std::cerr << first_setup.status() << "\n";
    return 2;
  }
  const std::vector<JobSpec>& jobs = first_setup->jobs;
  const Context& ctx = first_setup->ctx;
  const std::size_t round_size = jobs.size() > 1 ? jobs.size() - 1 : 1;

  const double start = NowSeconds();
  auto worker = [&](int w) {
    WorkerLog& log = logs[static_cast<std::size_t>(w)];
    std::size_t next = round_size * static_cast<std::size_t>(w) /
                       static_cast<std::size_t>(workers);
    int setups = 0;
    while (NowSeconds() - start < args.seconds) {
      const double setup_due =
          args.seconds * (setups + (w + 1.0) / (workers + 1.0)) /
          kSetupRounds;
      if (setups < kSetupRounds && NowSeconds() - start >= setup_due) {
        ++setups;
        auto again = SetUp(args, lines, &log.setup_s, &log.warmups);
        if (!again.ok()) log.status = again.status();
        continue;
      }
      const JobSpec& spec =
          jobs[jobs.size() > 1 ? 1 + next++ % round_size : 0];
      auto out = RunJob(ctx, spec);
      AppendJob(spec, out.ok() ? out->seconds : 0.0, out, &log.jobs, w);
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();

  std::vector<double> setup_s;
  std::string warmups, records;
  auto join = [](const std::string& part, std::string* to) {
    if (part.empty()) return;
    if (!to->empty()) *to += ",";
    *to += part;
  };
  for (const WorkerLog& log : logs) {
    if (!log.status.ok()) {
      std::cerr << log.status << "\n";
      return 2;
    }
    setup_s.insert(setup_s.end(), log.setup_s.begin(), log.setup_s.end());
    join(log.warmups, &warmups);
    join(log.jobs, &records);
  }
  std::string json = "{\"mode\":\"timed\",\"setup_s\":" + JsonArray(setup_s);
  json += ",\"warmup_jobs\":[" + warmups + "],\"jobs\":[" + records + "]";
  json += ",\"wall_s\":" + JsonNumber(NowSeconds() - start);

  if (args.workload == kObjectSweep) {
    // Grouping must never change results: the first job at its own
    // grouping and at one object per event loop.
    auto grouped = RunSweep(jobs[0], jobs[0].GetInt("objects"), args.nproc);
    auto solo = RunSweep(jobs[0], 1, args.nproc);
    const bool same =
        grouped.ok() && solo.ok() && grouped->digest == solo->digest;
    json += std::string(",\"sweep_identity\":") + (same ? "true" : "false");
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  json += ",\"peak_rss_kb\":" + std::to_string(usage.ru_maxrss);
  json += ",\"provenance\":" + ProvenanceJson() + "}";
  std::cout << json << std::endl;
  return 0;
}

int RunDigests(const std::vector<JobSpec>& jobs, int nproc) {
  auto ctx = MakeContext(nproc);
  if (!ctx.ok()) {
    std::cerr << ctx.status() << "\n";
    return 2;
  }
  std::string json = "{\"mode\":\"digests\",\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto out = RunJob(*ctx, jobs[i]);
    AppendJob(jobs[i], out.ok() ? out->seconds : 0.0, out, &json);
  }
  std::cout << json << "]}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_driver --mode=timed|traced|digests|mix "
                 "--workload=W --seconds=S --nproc=N < jobs.txt\n";
    return 2;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(std::cin, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (args.mode == "timed") return RunTimed(args, lines);
  auto all = ParseJobs(lines, "");
  if (!all.ok()) {
    std::cerr << all.status() << "\n";
    return 2;
  }
  if (args.mode == "traced") {
    return RunTraced(args.workload, *all, args.seconds, args.nproc);
  }
  if (args.mode == "mix") return RunServeMix(*all, args.nproc);
  return RunDigests(*all, args.nproc);
}
