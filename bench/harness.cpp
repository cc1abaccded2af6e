#include "harness.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <utility>

#include "exp/farm.hpp"
#include "exp/report.hpp"
#include "scenarios.hpp"
#include "util/check.hpp"

namespace voodb::bench {

namespace {

/// "path/to/bench_fig06_o2" -> "fig06_o2".
std::string BenchNameFromArgv0(const char* argv0) {
  std::string name = argv0 == nullptr ? "" : argv0;
  const size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return name.empty() ? "unnamed" : name;
}

/// Accumulates every recorded estimate and writes BENCH_<name>.json once,
/// at process exit (so a bench with several tables/figures lands in one
/// file with one wall clock).
class BenchRecorder {
 public:
  static BenchRecorder& Instance() {
    static BenchRecorder recorder;
    return recorder;
  }

  void Configure(const RunOptions& options) {
    std::lock_guard<std::mutex> lock(mu_);
    options_ = options;
    configured_ = true;
    start_ = std::chrono::steady_clock::now();
    if (!registered_) {
      registered_ = true;
      std::atexit([] { BenchRecorder::Instance().Flush(); });
    }
  }

  void Record(const std::string& section, const std::string& x,
              const std::string& series, const Estimate& e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!configured_ || options_.json.empty()) return;
    entries_.push_back({section, x, series, e});
  }

  void Flush() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!configured_ || flushed_ || options_.json.empty()) return;
    flushed_ = true;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    exp::JsonWriter w;
    w.BeginObject();
    w.Key("bench").Value(options_.bench_name);
    w.Key("base_seed").Value(options_.seed);
    w.Key("replications").Value(options_.replications);
    w.Key("transactions").Value(options_.transactions);
    w.Key("threads").Value(static_cast<uint64_t>(options_.threads));
    // The kernel configuration the numbers were measured under.  Both
    // knobs are bit-identity-preserving, so identity diffs may strip
    // them alongside wall_clock_ms — but a perf number without them is
    // unattributable.
    w.Key("event_queue").Value(desp::ToString(options_.event_queue));
    w.Key("fast_lane").Value(options_.fast_lane);
    w.Key("ci_level").Value(0.95);
    w.Key("wall_clock_ms").Value(wall_ms);
    w.Key("sections").BeginArray();
    // Group by section, then by x within the section, both in
    // first-appearance order.  Grouping must tolerate non-contiguous
    // entries: benches like the DSTC tables record a whole series at a
    // time, revisiting each x once per series.
    std::vector<std::string> sections;
    for (const Entry& entry : entries_) {
      if (std::find(sections.begin(), sections.end(), entry.section) ==
          sections.end()) {
        sections.push_back(entry.section);
      }
    }
    for (const std::string& section : sections) {
      w.BeginObject();
      w.Key("name").Value(section);
      w.Key("points").BeginArray();
      std::vector<std::string> xs;
      for (const Entry& entry : entries_) {
        if (entry.section == section &&
            std::find(xs.begin(), xs.end(), entry.x) == xs.end()) {
          xs.push_back(entry.x);
        }
      }
      for (const std::string& x : xs) {
        w.BeginObject();
        w.Key("x").Value(x);
        w.Key("series").BeginObject();
        for (const Entry& entry : entries_) {
          if (entry.section == section && entry.x == x) {
            w.Key(entry.series).BeginObject();
            w.Key("mean").Value(entry.estimate.mean);
            w.Key("ci_half_width").Value(entry.estimate.half_width);
            w.EndObject();
          }
        }
        w.EndObject();
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    try {
      exp::WriteFile(options_.json, w.str());
    } catch (const util::Error& e) {
      std::fprintf(stderr, "warning: %s\n", e.what());
    }
  }

 private:
  struct Entry {
    std::string section;
    std::string x;
    std::string series;
    Estimate estimate;
  };

  std::mutex mu_;
  RunOptions options_;
  bool configured_ = false;
  bool flushed_ = false;
  bool registered_ = false;
  std::chrono::steady_clock::time_point start_;
  std::vector<Entry> entries_;
};

}  // namespace

namespace {

/// Declares the common harness flags on `args` (their declarations feed
/// the generated --help text) and fills a RunOptions.  `event_queue_set`
/// reports whether --event-queue was passed explicitly (the scenario
/// path only overrides the config when it was).
RunOptions DeclareRunFlags(util::CliArgs& args, const std::string& bench_name,
                           bool* event_queue_set = nullptr) {
  RunOptions options;
  options.bench_name = bench_name;
  options.replications = static_cast<uint64_t>(args.GetInt(
      "replications", 10, "replications per point; paper used 100"));
  options.transactions = static_cast<uint64_t>(
      args.GetInt("transactions", 1000, "transactions per replication"));
  options.seed =
      static_cast<uint64_t>(args.GetInt("seed", 42, "base RNG seed"));
  options.threads = static_cast<size_t>(
      args.GetInt("threads", 0, "farm worker threads; 0 = all cores"));
  const std::string queue = args.GetString(
      "event-queue", "binary_heap",
      "kernel event list (binary_heap | quaternary_heap | calendar_queue)");
  options.event_queue = desp::ParseEventQueueKind(queue);
  if (event_queue_set != nullptr) {
    *event_queue_set = args.Provided("event-queue");
  }
  options.csv = args.GetBool("csv", false, "CSV output");
  const std::string json = args.GetString(
      "json", "BENCH_" + bench_name + ".json",
      "result file; \"off\" disables");
  options.json = (json == "off" || json == "none") ? "" : json;
  return options;
}

}  // namespace

RunOptions ParseOptions(int argc, const char* const* argv,
                        const std::string& description) {
  util::CliArgs args(argc, argv);
  RunOptions options = DeclareRunFlags(
      args, BenchNameFromArgv0(argc > 0 ? argv[0] : nullptr));
  if (args.help_requested()) {
    std::cout << description << "\n\n" << args.Help();
    std::exit(0);
  }
  args.RejectUnknown();
  VOODB_CHECK_MSG(options.replications >= 2,
                  "need at least 2 replications for confidence intervals");
  BenchRecorder::Instance().Configure(options);
  return options;
}

RunOptions ToRunOptions(const exp::ScenarioContext& ctx) {
  RunOptions options;
  options.replications = ctx.options.replications;
  options.transactions = ctx.options.transactions;
  options.seed = ctx.options.seed;
  options.threads = ctx.options.threads;
  options.event_queue = ctx.config.system.event_queue;
  options.fast_lane = ctx.config.system.fast_lane;
  options.csv = ctx.options.csv;
  if (ctx.scenario != nullptr) options.bench_name = ctx.scenario->name;
  return options;
}

int RunScenarioMain(const std::string& scenario_name, int argc,
                    const char* const* argv, const char* bench_name) {
  try {
    RegisterBenchScenarios();
    const exp::Scenario& scenario =
        exp::ScenarioRegistry::Instance().At(scenario_name);
    util::CliArgs args(argc, argv);
    bool event_queue_set = false;
    RunOptions options = DeclareRunFlags(
        args,
        bench_name != nullptr ? std::string(bench_name)
                              : BenchNameFromArgv0(argc > 0 ? argv[0]
                                                            : nullptr),
        &event_queue_set);
    const std::vector<std::string> sets = args.GetList(
        "set",
        "override a model parameter (name=value, repeatable; enum values "
        "by name; see `voodb params`)");
    if (args.help_requested()) {
      std::cout << scenario.title << "\n" << scenario.description << "\n\n"
                << args.Help();
      return 0;
    }
    args.RejectUnknown();
    VOODB_CHECK_MSG(options.replications >= 2,
                    "need at least 2 replications for confidence intervals");

    std::vector<exp::ParamOverride> overrides;
    if (event_queue_set && scenario.system_config_used) {
      // An emulator-only scenario has no simulation kernel: accept the
      // shared --event-queue flag as the legacy binaries did (results
      // are identical at any value) instead of rejecting it as a
      // discarded system override.
      overrides.emplace_back(
          "event_queue",
          ToString(desp::ParseEventQueueKind(
              args.GetString("event-queue", "binary_heap"))));
    }
    for (const std::string& assignment : sets) {
      const size_t eq = assignment.find('=');
      VOODB_CHECK_MSG(eq != std::string::npos && eq > 0,
                      "--set expects name=value, got '" << assignment << "'");
      overrides.emplace_back(assignment.substr(0, eq),
                             assignment.substr(eq + 1));
    }

    // Resolve the kernel knobs the run will actually execute under
    // (scenario base + --set overrides; RunScenario itself validates the
    // overrides, this is presentation only) so the run header and the
    // report metadata name the configuration the numbers belong to.
    desp::EventQueueKind kernel_queue = scenario.base.system.event_queue;
    bool kernel_lane = scenario.base.system.fast_lane;
    for (const auto& [name, value] : overrides) {
      if (name == "event_queue") {
        kernel_queue = desp::ParseEventQueueKind(value);
      } else if (name == "fast_lane") {
        std::string lower = value;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        kernel_lane = lower == "true" || lower == "yes" || lower == "on" ||
                      lower == "1";
      }
    }
    options.event_queue = kernel_queue;
    options.fast_lane = kernel_lane;
    std::cout << "[kernel] event_queue=" << desp::ToString(kernel_queue)
              << " fast_lane=" << (kernel_lane ? "on" : "off") << "\n";

    BenchRecorder::Instance().Configure(options);
    exp::ScenarioOptions scenario_options;
    scenario_options.replications = options.replications;
    scenario_options.transactions = options.transactions;
    scenario_options.seed = options.seed;
    scenario_options.threads = options.threads;
    scenario_options.csv = options.csv;
    RunScenario(scenario, scenario_options, overrides);
    return 0;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

Estimate EstimateOf(const desp::Tally& tally) {
  Estimate e;
  e.mean = tally.mean();
  if (tally.count() >= 2 && tally.stddev() > 0.0) {
    e.half_width = desp::StudentConfidenceInterval(tally, 0.95).half_width;
  }
  return e;
}

Estimate Replicate(const RunOptions& options, uint64_t base_seed,
                   const std::function<double(uint64_t)>& model) {
  const auto metrics = ReplicateMetrics(
      options, base_seed, [&model](uint64_t seed, desp::MetricSink& sink) {
        sink.Observe("value", model(seed));
      });
  return metrics.at("value");
}

desp::ReplicationResult ReplicateResult(
    const RunOptions& options, uint64_t base_seed,
    const desp::ReplicationRunner::Model& model) {
  exp::FarmOptions farm_options;
  farm_options.threads = options.threads;
  farm_options.base_seed = base_seed;
  return exp::ReplicationFarm(model, farm_options).Run(options.replications);
}

std::map<std::string, Estimate> EstimatesOf(
    const desp::ReplicationResult& result) {
  std::map<std::string, Estimate> estimates;
  for (const std::string& name : result.MetricNames()) {
    estimates[name] = EstimateOf(result.Metric(name));
  }
  return estimates;
}

std::map<std::string, Estimate> ReplicateMetrics(
    const RunOptions& options, uint64_t base_seed,
    const desp::ReplicationRunner::Model& model) {
  return EstimatesOf(ReplicateResult(options, base_seed, model));
}

void RecordEstimate(const std::string& section, const std::string& x,
                    const std::string& series, const Estimate& e) {
  BenchRecorder::Instance().Record(section, x, series, e);
}

std::string WithCi(const Estimate& e, int precision) {
  return util::FormatDouble(e.mean, precision) + " ±" +
         util::FormatDouble(e.half_width, precision);
}

FigureReport::FigureReport(std::string title, std::string x_label)
    : title_(std::move(title)),
      table_({std::move(x_label), "Benchmark(emu)", "Simulation(VOODB)",
              "Sim/Bench", "Paper bench*", "Paper sim*"}) {}

void FigureReport::AddPoint(const std::string& x, const Estimate& bench,
                            const Estimate& sim, double paper_bench,
                            double paper_sim) {
  RecordEstimate(title_, x, "benchmark", bench);
  RecordEstimate(title_, x, "simulation", sim);
  table_.AddRow({x, WithCi(bench), WithCi(sim),
                 util::FormatDouble(bench.mean > 0 ? sim.mean / bench.mean
                                                   : 0.0,
                                    3),
                 util::FormatDouble(paper_bench, 0),
                 util::FormatDouble(paper_sim, 0)});
}

LatencyReport::LatencyReport(std::string title, std::string x_label)
    : title_(std::move(title)),
      table_({std::move(x_label), "Count", "p50", "p95", "p99", "p999",
              "Max"}) {}

void LatencyReport::AddPoint(const std::string& x,
                             const desp::LogHistogram& histogram) {
  const double p50 = histogram.Quantile(0.50);
  const double p95 = histogram.Quantile(0.95);
  const double p99 = histogram.Quantile(0.99);
  const double p999 = histogram.Quantile(0.999);
  RecordEstimate(title_, x, "p50", {p50, 0.0});
  RecordEstimate(title_, x, "p95", {p95, 0.0});
  RecordEstimate(title_, x, "p99", {p99, 0.0});
  RecordEstimate(title_, x, "p999", {p999, 0.0});
  RecordEstimate(title_, x, "max", {histogram.max(), 0.0});
  table_.AddRow({x, std::to_string(histogram.count()),
                 util::FormatDouble(p50, 2), util::FormatDouble(p95, 2),
                 util::FormatDouble(p99, 2), util::FormatDouble(p999, 2),
                 util::FormatDouble(histogram.max(), 2)});
}

void LatencyReport::Print(const RunOptions& options) const {
  std::cout << "== " << title_ << " ==\n";
  if (options.csv) {
    table_.PrintCsv(std::cout);
  } else {
    table_.Print(std::cout);
  }
  std::cout << "\n";
}

void FigureReport::Print(const RunOptions& options) const {
  std::cout << "== " << title_ << " ==\n";
  if (options.csv) {
    table_.PrintCsv(std::cout);
  } else {
    table_.Print(std::cout);
  }
  std::cout << "(*) paper series read off the published figure; "
               "approximate.  Shapes, not absolute values, are the "
               "reproduction target.  Sim/Bench = 1.000 is structural: "
               "the emulators and the model share one storage engine "
               "(see README).\n\n";
}

}  // namespace voodb::bench
