// perfbench — one measurement process of the end-to-end simulator
// benchmark.
//
//   perfbench --workload W --seed N --seconds S --variants V[,V...]
//             [--setups K] [--max-reps R]
//   perfbench --workload W --record
//
// The process sets the workload up K times (OCB base generation + system
// construction), then runs rounds until S seconds have passed (or R
// rounds).  A round runs the seed's next replication input once under
// each variant, back to back, so that ratios between variants are
// taken under the same machine conditions.  It prints one JSON object with
// the raw measurements and each replication's fingerprint; run.py turns
// them into metrics and checks the fingerprints.  Variants:
//   plain      the system as configured (what the end-to-end metrics use)
//   spans_off  the same with the span tracer off (trace_spans=false)
//   serial     the same on the serial kernel (1 simulation thread)
//   probed     decorators and the per-event host-time hook attached; on
//              the serial kernel, so dispatches form one sequence
// --record prints every (base, replication) pool entry's fingerprint, the
// expectation file's format.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "exp/executor.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::SecondsSince;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::vector<std::string> variants{"plain"};
  int setups = 5;
  uint64_t max_reps = 0;  ///< 0 = until --seconds
  bool record = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--variants plain|spans_off|serial|probed[,...]\n"
               "       [--setups K] [--max-reps R]\n"
               "       perfbench --workload W --record\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      args.record = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--variants") {
        args.variants.clear();
        std::istringstream list(value);
        for (std::string v; std::getline(list, v, ',');) {
          args.variants.push_back(v);
        }
      } else if (flag == "--max-reps") {
        args.max_reps = std::stoull(value);
      } else if (flag == "--setups") {
        args.setups = std::stoi(value);
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(args.seconds > 0.0) || args.setups < 1 || args.variants.empty()) {
    Usage("bad --seconds, --setups or --variants");
  }
  for (const std::string& v : args.variants) {
    if (v != "plain" && v != "spans_off" && v != "serial" && v != "probed") {
      Usage("unknown variant " + v);
    }
  }
  return args;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// The peak resident set of this program.  VmHWM, not getrusage's
// ru_maxrss: Linux carries ru_maxrss over exec, so it would report the
// launching process's peak when that was larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

template <typename Map>
std::string JsonObject(const Map& map) {
  std::string out = "{";
  for (const auto& [key, value] : map) {
    if (out.size() > 1) out += ",";
    out += Quoted(key) + ":" + Num(value);
  }
  return out + "}";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ",") + Num(values[i]);
  }
  return out + "]";
}

int Record(perfbench::WorkloadKind kind) {
  for (uint32_t b = 0; b < perfbench::kBasePool; ++b) {
    const perfbench::WorkloadSpec spec = perfbench::Spec(kind);
    const voodb::ocb::ObjectBase base = perfbench::GenerateBase(spec, b);
    // Fingerprints do not depend on the thread count; any will do.
    const size_t threads =
        std::min(spec.sim_threads, voodb::exp::ThreadPool::HardwareThreads());
    std::unique_ptr<voodb::exp::ThreadPool> pool;
    if (threads > 1) {
      pool = std::make_unique<voodb::exp::ThreadPool>(
          voodb::exp::ExecutorOptions{threads});
    }
    for (uint32_t p = 0; p < perfbench::kReplicationPool; ++p) {
      perfbench::Replica replica(spec, base, perfbench::ReplicationSeed(p));
      std::cout << perfbench::Name(kind) << " " << b << " " << p << " "
                << replica.Run(pool.get()).ToString() << std::endl;
    }
  }
  return 0;
}

/// One variant's configuration and what it measured.
struct Variant {
  std::string name;
  perfbench::WorkloadSpec spec;
  std::unique_ptr<perfbench::Probes> probes;
  std::string reps;  ///< JSON objects, comma-separated
};

/// Runs one replication of `v` and appends its JSON record.
void RunReplication(Variant& v, const voodb::ocb::ObjectBase& base,
                    perfbench::Input input, voodb::exp::ThreadPool* pool) {
  std::ostringstream rep;
  rep << "{\"base\":" << input.base << ",\"pool\":" << input.pool;
  try {
    perfbench::Replica replica(v.spec, base,
                               perfbench::ReplicationSeed(input.pool),
                               v.probes.get());
    const uint64_t allocs_before = perfbench::AllocationCount();
    const double cpu_before = CpuSeconds();
    const Clock::time_point start = Clock::now();
    const perfbench::Fingerprint fp =
        replica.Run(v.spec.sim_threads > 1 ? pool : nullptr);
    const double wall = SecondsSince(start);
    const double cpu = CpuSeconds() - cpu_before;
    const uint64_t allocs = perfbench::AllocationCount() - allocs_before;
    rep << ",\"wall_s\":" << Num(wall) << ",\"cpu_s\":" << Num(cpu)
        << ",\"allocs\":" << allocs << ",\"committed\":" << fp.committed
        << ",\"events\":" << fp.events << ",\"restarts\":" << fp.restarts
        << ",\"ios\":" << fp.ios
        << ",\"fingerprint\":" << Quoted(fp.ToString())
        << ",\"counters\":" << JsonObject(replica.LayerCounters());
  } catch (const std::exception& e) {
    rep << ",\"error\":" << Quoted(e.what());
  }
  rep << "}";
  v.reps += (v.reps.empty() ? "" : ",") + rep.str();
}

std::string PassJson(const Variant& v) {
  std::string out = "{\"sim_threads\":" + std::to_string(v.spec.sim_threads);
  if (v.probes != nullptr) {
    const perfbench::LayerTimers& t = v.probes->timers;
    out += ",\"host_s\":" + JsonObject(v.probes->host.Seconds()) +
           ",\"timers\":" +
           JsonObject(std::map<std::string, double>{
               {"next_s", t.next_s},
               {"next_calls", static_cast<double>(t.next_calls)},
               {"next_accesses", static_cast<double>(t.next_accesses)},
               {"observe_s", t.observe_s},
               {"observe_calls", static_cast<double>(t.observe_calls)},
               {"recluster_s", t.recluster_s},
               {"recluster_calls", static_cast<double>(t.recluster_calls)}});
  }
  return out + ",\"reps\":[" + v.reps + "]}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  perfbench::WorkloadKind kind;
  if (!perfbench::ParseWorkload(args.workload, &kind)) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (args.record) return Record(kind);

  const perfbench::WorkloadSpec spec = perfbench::Spec(kind);
  // Never more simulation threads than the machine has.
  const size_t threads =
      std::min(spec.sim_threads, voodb::exp::ThreadPool::HardwareThreads());
  std::vector<Variant> variants;
  for (const std::string& name : args.variants) {
    Variant v;
    v.name = name;
    v.spec = spec;
    v.spec.sim_threads = name == "serial" || name == "probed" ? 1 : threads;
    if (name == "spans_off") v.spec.system.trace_spans = false;
    if (name == "probed") v.probes = std::make_unique<perfbench::Probes>();
    variants.push_back(std::move(v));
  }

  // Set-up: base generation plus one system construction, repeated (every
  // base of the pool at least once) so the reported set-up time is a
  // median.  The last generation of each base is kept.
  std::vector<double> generate_s;
  std::vector<double> construct_s;
  std::vector<std::unique_ptr<voodb::ocb::ObjectBase>> bases(
      perfbench::kBasePool);
  const int setups = std::max(args.setups, int{perfbench::kBasePool});
  for (int k = 0; k < setups; ++k) {
    std::unique_ptr<voodb::ocb::ObjectBase>& base =
        bases[k % perfbench::kBasePool];
    base.reset();
    Clock::time_point start = Clock::now();
    base = std::make_unique<voodb::ocb::ObjectBase>(
        perfbench::GenerateBase(spec, k % perfbench::kBasePool));
    generate_s.push_back(SecondsSince(start));
    start = Clock::now();
    {
      perfbench::Replica replica(variants.front().spec, *base,
                                 perfbench::ReplicationSeed(0));
      construct_s.push_back(SecondsSince(start));
    }
  }
  std::unique_ptr<voodb::exp::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<voodb::exp::ThreadPool>(
        voodb::exp::ExecutorOptions{threads});
  }

  const Clock::time_point measure_start = Clock::now();
  for (uint64_t r = 0;; ++r) {
    const perfbench::Input input = perfbench::InputFor(args.seed, r);
    for (Variant& v : variants) {
      RunReplication(v, *bases[input.base], input, pool.get());
    }
    const double elapsed = SecondsSince(measure_start);
    if (elapsed + elapsed / static_cast<double>(r + 1) > args.seconds ||
        r + 1 == args.max_reps) {
      break;
    }
  }

  std::ostringstream out;
  out << "{\"workload\":" << Quoted(args.workload) << ",\"seed\":" << args.seed
      << ",\"compiler\":" << Quoted(PERFBENCH_COMPILER)
      << ",\"build_type\":" << Quoted(PERFBENCH_BUILD_TYPE)
      << ",\"generate_s\":" << JsonArray(generate_s)
      << ",\"construct_s\":" << JsonArray(construct_s)
      << ",\"peak_rss_mb\":" << Num(PeakRssMb()) << ",\"passes\":{";
  for (size_t i = 0; i < variants.size(); ++i) {
    out << (i == 0 ? "" : ",") << Quoted(variants[i].name) << ":"
        << PassJson(variants[i]);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
