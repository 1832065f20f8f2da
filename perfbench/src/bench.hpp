#pragma once

// Shared pieces of the rlv benchmark: the command line, the result every
// workload hands back, latency statistics, the span tracer and the mapping
// from the library's budget stages onto its layers.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rlv/engine/query.hpp"
#include "rlv/util/budget.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the whole process (every thread, user + system), seconds.
[[nodiscard]] double process_cpu_s();

/// CPU time of the calling thread, milliseconds.
[[nodiscard]] double thread_cpu_ms();

[[nodiscard]] inline std::int64_t nanos_between(Clock::time_point a,
                                                Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span file written at exit (trace runs only)
};

/// Independent 64-bit stream for item `index` of a run seeded with `seed`,
/// so that item i is the same input whatever else the run generated.
[[nodiscard]] std::uint64_t item_seed(std::uint64_t seed, std::uint64_t index);

// ---------------------------------------------------------------------
// Layers and the tracer.

enum class Layer : std::uint8_t {
  kPetri,
  kHom,
  kCore,
  kLtl,
  kOmega,
  kLang,
  kFair,
  kCert,
  kEngine,
  kNet,
  kMonitor,
  kIo,
  kBench,  // the benchmark's own glue between calls
};
inline constexpr std::size_t kNumLayers = 13;

[[nodiscard]] std::string_view layer_name(Layer layer);

/// Layer that owns the work a budget stage times: parsing is io, the
/// lim/pre constructions and every Büchi kernel are omega, certification
/// (the engine's only kOther scope) is cert.
[[nodiscard]] Layer stage_layer(rlv::Stage stage);

/// Spans kept in memory and written out at exit. A span is one call the
/// benchmark makes into a layer; `attribute` moves part of a span's own
/// time to the layer that a counter read at that boundary (a QueryProfile
/// stage, a record's server time) says did the work. A layer's self time
/// is its spans' durations minus their children and attributed parts,
/// plus whatever was attributed to it.
class Tracer {
 public:
  static constexpr std::int32_t kNoParent = -1;

  std::int32_t open(const char* name, Layer layer, std::uint32_t instance);
  void close(std::int32_t id);
  /// A root span whose ends were taken elsewhere (asynchronous calls).
  std::int32_t add(const char* name, Layer layer, std::uint32_t instance,
                   Clock::time_point start, Clock::time_point end);
  void attribute(std::int32_t span, Layer layer, std::int64_t nanos);
  void attribute_profile(std::int32_t span, const rlv::QueryProfile& profile);

  /// Self time per layer over the span trees rooted at spans called
  /// `root`, and the summed duration of those roots.
  [[nodiscard]] std::array<std::int64_t, kNumLayers> self_nanos(
      std::string_view root, std::int64_t* root_nanos) const;
  /// Sum of the durations of every span called `name`.
  [[nodiscard]] std::int64_t total_nanos(std::string_view name) const;

  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Layer layer;
    std::uint32_t instance;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Attribution {
    std::int32_t span;
    Layer layer;
    std::int64_t nanos;
  };

  [[nodiscard]] std::int64_t stamp(Clock::time_point t) const {
    return nanos_between(epoch_, t);
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Attribution> attributions_;
  std::int32_t top_ = kNoParent;
};

/// RAII span; a null tracer (untraced run) makes it free.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, Layer layer, std::uint32_t instance)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, layer, instance) : Tracer::kNoParent) {
  }
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

// ---------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(). Verdict latencies and counts feed
/// the end-to-end metrics; `layers` holds per-layer metrics (traced runs);
/// `report` holds figures printed for people but not gated.
struct Result {
  std::vector<double> setup_s;  // CPU seconds of each set-up repetition
  double timed_s = 0.0;         // wall time of the timed window
  std::uint64_t attempted = 0;  // verdicts asked for in the timed window
  std::uint64_t decided = 0;    // definite verdicts
  std::uint64_t failed = 0;     // wrong verdicts, errors, refusals
  /// Time to each verdict: CPU time of the thread that computed it
  /// (petri_pipeline, engine_cold) or the engine's time in the served
  /// record (serve_mixed).
  std::vector<double> latency_ms;
  /// Percentile reported as verdict_tail_ms. Fixed per workload, so that
  /// it does not change with the run's verdict count; main() prints how
  /// many samples lie beyond it.
  double tail_pct = 99.0;
  double timed_cpu_s = 0.0;     // process CPU time in the timed window
  /// Resident set after set-up. At the end of the timed window it moved
  /// by 38% across engine_cold seeds, with whatever the caches happened
  /// to hold, and per-query peaks swing by 2x within one run.
  double rss_mb = 0.0;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> report;
  std::vector<std::string> mismatches;  // one line per failure, for stderr
};

void note_failure(Result& result, std::string what);

/// This process's resident set now, in MiB, after returning free heap
/// memory to the system.
[[nodiscard]] double resident_mb();

[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile of `values` (p in [0, 100]).
[[nodiscard]] double percentile(std::vector<double> values, double p);


/// Per-layer self time (ms per verdict) of a traced run over the verdict
/// spans called `root`, plus the share of their time that the layers
/// (not the benchmark's glue) account for.
void add_layer_times(Result& result, const Tracer& tracer,
                     std::string_view root, std::size_t verdicts);

/// Engine cache hit ratios, evictions and certificate counters over the
/// interval between two stats snapshots.
void add_cache_metrics(Result& result, const rlv::EngineStats& before,
                       const rlv::EngineStats& after);

/// Per-verdict time and states of each budget stage, from the summed
/// profiles of `verdicts` verdicts.
void add_stage_metrics(Result& result, const rlv::QueryProfile& stages,
                       std::size_t verdicts);

// The workloads. Each runs set-up, the timed closed loop and the
// correctness checks, in that order.
Result run_petri_pipeline(const Args& args);
Result run_engine_cold(const Args& args);
Result run_serve_mixed(const Args& args);

}  // namespace bench
