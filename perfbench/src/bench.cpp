// rlv_perfbench — one seeded run of one benchmark workload.
//
//   rlv_perfbench --workload petri_pipeline|engine_cold|serve_mixed
//                 --seed N --seconds S [--trace 0|1] [--trace-out FILE]
//
// Prints the run's figures as "# " lines and, last, one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics and write every span to --trace-out. perfbench/run.py
// builds this program and is the command to use.

#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace bench {

std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string_view layer_name(Layer layer) {
  static constexpr std::array<std::string_view, kNumLayers> kNames = {
      "petri", "hom",    "core", "ltl", "omega",   "lang", "fair",
      "cert",  "engine", "net",  "monitor", "io",   "bench"};
  return kNames[static_cast<std::size_t>(layer)];
}

Layer stage_layer(rlv::Stage stage) {
  switch (stage) {
    case rlv::Stage::kParse:
      return Layer::kIo;
    case rlv::Stage::kTranslate:
      return Layer::kLtl;
    case rlv::Stage::kInclusion:
      return Layer::kLang;
    case rlv::Stage::kPetriUnfold:
      return Layer::kPetri;
    case rlv::Stage::kOther:
      return Layer::kCert;
    case rlv::Stage::kPreTrim:
    case rlv::Stage::kProduct:
    case rlv::Stage::kEmptiness:
    case rlv::Stage::kComplement:
      break;
  }
  return Layer::kOmega;
}

std::int32_t Tracer::open(const char* name, Layer layer,
                          std::uint32_t instance) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, layer, instance, top_, stamp(Clock::now()), 0});
  top_ = id;
  return id;
}

void Tracer::close(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = stamp(Clock::now());
  top_ = span.parent;
}

std::int32_t Tracer::add(const char* name, Layer layer, std::uint32_t instance,
                         Clock::time_point start, Clock::time_point end) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      {name, layer, instance, kNoParent, stamp(start), stamp(end)});
  return id;
}

void Tracer::attribute(std::int32_t span, Layer layer, std::int64_t nanos) {
  if (nanos > 0) attributions_.push_back({span, layer, nanos});
}

void Tracer::attribute_profile(std::int32_t span,
                               const rlv::QueryProfile& profile) {
  for (std::size_t i = 0; i < rlv::kNumStages; ++i) {
    attribute(span, stage_layer(static_cast<rlv::Stage>(i)),
              static_cast<std::int64_t>(profile.stages[i].nanos));
  }
}

std::array<std::int64_t, kNumLayers> Tracer::self_nanos(
    std::string_view root, std::int64_t* root_nanos) const {
  // Parents are recorded before their children, so one forward pass finds
  // every span's root.
  std::vector<std::int32_t> root_of(spans_.size());
  std::vector<std::int64_t> own(spans_.size());
  *root_nanos = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    root_of[i] = span.parent == kNoParent
                     ? static_cast<std::int32_t>(i)
                     : root_of[static_cast<std::size_t>(span.parent)];
    own[i] = span.end_ns - span.start_ns;
    if (span.parent != kNoParent) {
      own[static_cast<std::size_t>(span.parent)] -= own[i];
    } else if (root == span.name) {
      *root_nanos += own[i];
    }
  }
  const auto counted = [&](std::size_t i) {
    return root == spans_[static_cast<std::size_t>(root_of[i])].name;
  };
  std::array<std::int64_t, kNumLayers> layers{};
  for (const Attribution& a : attributions_) {
    const auto i = static_cast<std::size_t>(a.span);
    if (!counted(i)) continue;
    own[i] -= a.nanos;
    layers[static_cast<std::size_t>(a.layer)] += a.nanos;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (counted(i)) layers[static_cast<std::size_t>(spans_[i].layer)] += own[i];
  }
  return layers;
}

std::int64_t Tracer::total_nanos(std::string_view name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.end_ns - span.start_ns;
  }
  return total;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"layer\":\""
        << layer_name(s.layer) << "\",\"instance\":" << s.instance
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  for (const Attribution& a : attributions_) {
    out << "{\"attribute\":" << a.span << ",\"layer\":\""
        << layer_name(a.layer) << "\",\"ns\":" << a.nanos << "}\n";
  }
}

void note_failure(Result& result, std::string what) {
  ++result.failed;
  if (result.mismatches.size() < 20) {
    result.mismatches.push_back(std::move(what));
  }
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double resident_mb() {
  // Return freed heap pages first: how much freed memory glibc keeps
  // depends on thread interleaving, and varied by 20% between identical
  // engine_cold runs.
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double median(std::vector<double> values) { return percentile(values, 50); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void add_layer_times(Result& result, const Tracer& tracer,
                     std::string_view root, std::size_t verdicts) {
  std::int64_t root_nanos = 0;
  const auto self = tracer.self_nanos(root, &root_nanos);
  const double per = verdicts > 0 ? 1.0 / static_cast<double>(verdicts) : 0.0;
  std::int64_t layers_nanos = 0;
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer != Layer::kBench) layers_nanos += self[i];
    result.layers[std::string(layer_name(layer)) + ".self_ms"] = {
        static_cast<double>(self[i]) / 1e6 * per, "ms"};
  }
  result.layers["trace.accounted_ratio"] = {
      root_nanos > 0 ? static_cast<double>(layers_nanos) / root_nanos : 0.0,
      "ratio"};
}

}  // namespace bench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rlv_perfbench --workload "
               "petri_pipeline|engine_cold|serve_mixed --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

void print_metric(const std::string& name, const bench::Metric& m) {
  std::printf("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", name.c_str(),
              m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage();
    }
  }
  if (args.seconds <= 0) return usage();

  bench::Result result;
  try {
    if (args.workload == "petri_pipeline") {
      result = bench::run_petri_pipeline(args);
    } else if (args.workload == "engine_cold") {
      result = bench::run_engine_cold(args);
    } else if (args.workload == "serve_mixed") {
      result = bench::run_serve_mixed(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlv_perfbench: %s\n", e.what());
    return 1;
  }
  if (result.attempted == 0 || result.timed_s <= 0 ||
      result.timed_cpu_s <= 0) {
    std::fprintf(stderr, "rlv_perfbench: no verdict completed\n");
    return 1;
  }
  for (const std::string& line : result.mismatches) {
    std::fprintf(stderr, "mismatch: %s\n", line.c_str());
  }

  const auto n = static_cast<double>(result.attempted);
  const double tail_p = result.tail_pct;
  const double beyond =
      static_cast<double>(result.latency_ms.size()) * (100.0 - tail_p) / 100.0;
  std::map<std::string, bench::Metric> e2e = {
      {"setup_s", {bench::median(result.setup_s), "s"}},
      {"verdicts_per_cpu_s", {n / result.timed_cpu_s, "1/s"}},
      {"verdict_p50_ms", {bench::percentile(result.latency_ms, 50), "ms"}},
      {"verdict_tail_ms", {bench::percentile(result.latency_ms, tail_p), "ms"}},
      {"decided_ratio", {static_cast<double>(result.decided) / n, "ratio"}},
      {"rss_mb", {result.rss_mb, "MiB"}},
  };

  std::printf("# workload %s seed %llu seconds %g trace %d; compiler %s, "
              "build type %s, %u hardware threads\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, RLV_PERFBENCH_COMPILER,
              RLV_PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  for (const auto& [name, m] : e2e) {
    std::printf("# %-24s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# %-24s %14.6g ratio\n", "failed_ratio",
              static_cast<double>(result.failed) / n);
  std::printf("# %-24s %14.6g 1/s (wall clock, not gated)\n",
              "verdicts_per_s", n / result.timed_s);
  std::printf("# verdict_tail_ms is p%g of %zu verdicts (%.0f beyond it%s); "
              "timed %.3f s wall, %.3f s CPU\n",
              tail_p, result.latency_ms.size(), beyond,
              beyond < 10 ? ", FEWER THAN 10" : "", result.timed_s,
              result.timed_cpu_s);
  for (const auto& [name, m] : result.report) {
    std::printf("# %-24s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  result.layers["trace.verdicts_per_cpu_s"] = e2e["verdicts_per_cpu_s"];
  const auto& metrics = args.trace ? result.layers : e2e;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) std::printf(",");
    first = false;
    print_metric(name, m);
  }
  std::printf("}}\n");
  return 0;
}
