#pragma once
// Shared pieces of the adaptation-round benchmark: run options, the span
// recorder used by the traced run, and the per-workload result each workload
// driver hands back to main.cpp for reduction into metrics.
//
// Every layer is timed from the outside, around calls into its public
// functions; nothing here reaches into src/ internals.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/prof.hpp"

namespace pnrbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: every N rounds, also send a request for a session id that
  /// does not exist (svc_sfc_sessions only; 0 = never). The error reply it
  /// earns must count as a failed op and stay out of the latency samples.
  int inject_unknown_every = 0;
  std::string trace_out;  ///< span file written at exit (traced run only)
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: derives independent input seeds from the --seed argument.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// In-memory span recorder. A span has a name, start, end, parent and round
/// id. Durations and self times (duration minus the time covered by direct
/// children) are aggregated per name for every span; the spans themselves
/// are kept up to a cap and written out by write() at exit. Disabled, every
/// call is a single branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< stored index of the parent span, -1 for a root
    std::int32_t round;   ///< round id, -1 outside rounds
  };
  struct Aggregate {
    std::int64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_round(std::int32_t round) { round_ = round; }

  /// Open a span now; returns a handle for close().
  int open(const char* name);
  void close(int handle);
  /// Record an already-finished span as a child of the innermost open span.
  /// `keep` = false aggregates it without storing it (high-rate idle polls).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              bool keep = true);

  /// Per-name totals of every span recorded while enabled.
  std::map<std::string, Aggregate> aggregates() const;
  std::int64_t dropped() const { return dropped_; }
  /// Write every stored span as JSON lines; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t index;  ///< stored span index, -1 when over the cap
  };
  std::int32_t store(const Span& span);
  void aggregate(const char* name, std::int64_t dur, std::int64_t self);

  static constexpr std::size_t kMaxStored = 400000;
  bool enabled_ = false;
  std::int32_t round_ = -1;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  /// Keyed by the name literal's address: a hash of a pointer keeps the
  /// per-span cost flat in the svc I/O loop's high-rate poll records.
  std::unordered_map<const char*, Aggregate> agg_;
  std::int64_t dropped_ = 0;
};

/// RAII span; no-op while the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), handle_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Scope() {
    if (handle_ >= 0) tracer_.close(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int handle_;
};

/// What one workload run hands back to main.cpp, which reduces it to the
/// printed metrics.
struct Result {
  std::int64_t attempted = 0;  ///< ops issued (rounds, or svc requests)
  std::int64_t failed = 0;     ///< ops that failed; their rounds are unsampled
  bool correct = true;
  std::vector<std::string> errors;  ///< first few correctness findings

  std::vector<double> round_ms;        ///< untraced-pass round latencies
  /// Per untraced pass: p50 and p90 of its rounds, and its rounds/s.
  std::vector<double> pass_p50, pass_p90, pass_rate;
  std::vector<double> traced_round_ms; ///< traced-pass round latencies
  std::vector<double> setup_s;         ///< one per pass
  double busy_seconds = 0.0;  ///< wall time of the round loops, all passes
  std::int64_t rounds = 0;    ///< successful rounds, all passes
  std::int64_t traced_rounds = 0;
  int passes = 0;
  int rounds_per_pass = 0;

  double cut_mean = 0.0;
  double migrated_frac_mean = 0.0;
  double imbalance_p99 = 0.0;
  double imbalance_max = 0.0;
  std::uint64_t fingerprint = 0;

  /// Per-layer values measured by the workload itself (layer timings taken
  /// around public calls). Keys are per_layer metric names.
  std::map<std::string, double> layer;

  void fail_check(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
};

/// Per-round quality of one or more passes, reduced order-independently
/// (values are sorted before summing), so a reply order that varies between
/// runs cannot change a single bit of the means.
class QualityAcc {
 public:
  void add(std::int64_t cut, std::int64_t migrated, std::int64_t elements,
           double imbalance);
  void merge(const QualityAcc& other);
  void finish(Result& result) const;

 private:
  std::vector<double> cut_;
  std::vector<double> mig_frac_;
  std::vector<double> imbalance_;
};

Result run_plan_transient2d(const Options& options, Tracer& tracer);
Result run_svc_sfc_sessions(const Options& options, Tracer& tracer);
Result run_fed_transient3d(const Options& options, Tracer& tracer);

/// Nearest-rank quantile of `v` (copied); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Run whole passes until --seconds have elapsed, and at least one pass per
/// input variant (and two in the traced run). Pass i replays variant
/// i % variants, whose seed derives from --seed. In the traced run passes
/// alternate traced/untraced, so its tracing overhead is measured against
/// untraced rounds of the same process; with an odd variant count every
/// variant is seen both ways over two cycles. pnr::prof is armed only during
/// traced passes. `pass(index, variant seed, traced)` runs one pass.
template <typename PassFn>
void run_passes(const Options& options, Tracer& tracer, Result& result,
                int variants, PassFn&& pass) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const int min_passes = std::max(variants, options.trace ? 2 : 1);
  for (int i = 0; i < min_passes || now_ns() < deadline; ++i) {
    const bool traced = options.trace && i % 2 == 0;
    pnr::prof::set_enabled(traced);
    tracer.set_enabled(traced);
    const std::size_t n0 = result.round_ms.size();
    const double busy0 = result.busy_seconds;
    pass(i, derive_seed(options.seed, 1000 + static_cast<std::uint64_t>(
                                                 i % variants)),
         traced);
    result.passes = i + 1;
    if (result.round_ms.size() > n0) {
      const std::vector<double> own(
          result.round_ms.begin() + static_cast<std::ptrdiff_t>(n0),
          result.round_ms.end());
      result.pass_p50.push_back(quantile(own, 0.5));
      result.pass_p90.push_back(quantile(own, 0.9));
      result.pass_rate.push_back(static_cast<double>(own.size()) /
                                 (result.busy_seconds - busy0));
    }
  }
  pnr::prof::set_enabled(false);
  tracer.set_enabled(false);
}

/// Bookkeeping for the input variants a run cycles through. Quality is
/// reduced over the first complete pass of each variant, so it is fixed by
/// the seed however many passes fit in the run; every later pass of a
/// variant must reproduce that pass's fingerprint.
class Variants {
 public:
  explicit Variants(int count)
      : fp_(static_cast<std::size_t>(count), 0),
        seen_(static_cast<std::size_t>(count), false) {}
  int count() const { return static_cast<int>(fp_.size()); }
  /// Record a pass that ran to completion.
  void complete(Result& result, int pass, std::uint64_t fp,
                const QualityAcc& quality);
  /// Fill the quality figures and the run fingerprint into `result`.
  void finish(Result& result) const;

 private:
  std::vector<std::uint64_t> fp_;
  std::vector<bool> seen_;
  QualityAcc quality_;
};

/// File one successful round's latency under the pass's sample set.
inline void add_round(Result& result, bool traced, double ms) {
  ++result.rounds;
  if (traced) {
    ++result.traced_rounds;
    result.traced_round_ms.push_back(ms);
  } else {
    result.round_ms.push_back(ms);
  }
}

}  // namespace pnrbench
