//===- perfbench/src/Harness.h - Benchmark harness --------------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the repository benchmark: run options, the seeded
/// input generator, sample statistics, the output-check ledger behind the
/// result's `correct` / `attempted` / `failed` fields, the metric sink, and
/// the span recorder of the traced run. The workloads (Traffic.cpp,
/// Query.cpp, Graph.cpp) call only the library's public entry points and
/// time them from the outside.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The seed results are pinned for, and the held-out seed a performance
/// claim must also hold on (goldens are recorded for both).
constexpr uint64_t DefaultSeed = 1;
constexpr uint64_t HeldOutSeed = 7919;

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10.0;
  bool Trace = false;       ///< traced run: per-layer metrics instead.
  bool Tiny = false;        ///< self-test sizes.
  bool EmitGoldens = false; ///< print every checked output as a golden line.
  std::string WorkDir;      ///< scratch files (tables, spans).
  std::string GitDescribe = "unknown";

  const char *sizeName() const { return Tiny ? "tiny" : "full"; }
};

/// Monotonic wall clock in seconds.
double now();

/// SplitMix64: every benchmark input is drawn from one of these, seeded
/// from the run seed, so a seed fixes the inputs on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }
  /// A uniformly random one-line permutation of 0..K-1.
  std::vector<uint8_t> permutation(unsigned K);

private:
  uint64_t State;
};

/// A per-purpose seed derived from the run seed, so that the traffic
/// trace, the query stream and the fault campaign draw independent inputs.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream);

/// A sample of timings (or any values).
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }
  const std::vector<double> &values() const { return Values; }
  double median() const;
  double mean() const;
  double sum() const;
  /// The \p P-th percentile (nearest rank).
  double percentile(double P) const;
  /// The highest whole percentile with at least ten samples above it, or
  /// 0 when the sample is too small for any.
  unsigned tailPercent() const;

private:
  std::vector<double> Values;
};

/// Formats a value the way goldens and metrics store it (round-trip
/// exact for doubles).
std::string fmt(double V);
std::string fmt(uint64_t V);

/// FNV-1a over \p Size bytes, continuing from \p Hash.
uint64_t fnv1a(const void *Data, size_t Size,
               uint64_t Hash = 0xCBF29CE484222325ULL);

/// The deterministic output fields of one result, as (name, value) pairs.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

/// The output-check ledger. Every checked operation (a simulation call, a
/// query reply, a sweep, a campaign) counts once as attempted, and once as
/// failed when any of its checks fails; failures are never dropped. The
/// goldens come from perfbench/goldens.txt, whose path is compiled in; a
/// goldens file that cannot be read is itself a failed check.
class Checks {
public:
  explicit Checks(const Options &Opts);

  /// One checked operation; records itself when destroyed.
  class Op {
  public:
    explicit Op(Checks &Owner) : Owner(Owner) {}
    ~Op();
    Op(const Op &) = delete;
    Op &operator=(const Op &) = delete;

    bool expect(bool Ok, const std::string &What);
    /// Compares \p Value with the golden recorded for \p Key. Seed-bound
    /// keys are checked only on seeds that have goldens; seed-independent
    /// keys on every seed.
    void golden(const std::string &Key, const std::string &Value,
                bool SeedIndependent = false);
    /// golden() for every field of \p F, keyed "<Prefix>.<field>".
    void goldens(const std::string &Prefix, const Fingerprint &F,
                 bool SeedIndependent = false);
    /// Expects \p Actual to equal \p Expected field by field.
    void same(const std::string &Prefix, const Fingerprint &Expected,
              const Fingerprint &Actual);

  private:
    Checks &Owner;
    bool Ok = true;
  };

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  const Options &Opts;
  std::map<std::string, std::string> SeedGoldens, AnySeedGoldens;
  uint64_t Attempted = 0, Failed = 0, Reported = 0;
};

/// Named metric values of one run, plus the human-readable report lines
/// printed before the final JSON object.
class Metrics {
public:
  void set(const std::string &Name, double Value) { Values[Name] = Value; }
  double get(const std::string &Name) const;
  const std::map<std::string, double> &values() const { return Values; }

  /// Prints "<name> median ... p<tail> ... n ..." for a timing sample,
  /// scaled by \p Scale into \p Unit.
  static void report(const std::string &Name, const Samples &S,
                     const std::string &Unit, double Scale = 1.0);
  /// Prints "<name> <value> <unit>".
  static void report(const std::string &Name, double Value,
                     const std::string &Unit);

private:
  std::map<std::string, double> Values;
};

/// Span recorder of the traced run: each span is a named interval with the
/// span that was open when it started as its parent. Spans stay in memory
/// and are written out once, when the run ends.
class Tracer {
public:
  struct Span {
    std::string Name;
    int Parent; ///< index of the enclosing span, -1 at top level.
    double Start, End;
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
  public:
    Scope(Tracer &T, const std::string &Name);
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Closes the span early; returns its duration in seconds.
    double close();

  private:
    Tracer &T;
    int Id;
    bool Open = true;
  };

  const std::vector<Span> &spans() const { return Spans; }
  /// Total duration of every span called \p Name.
  double total(const std::string &Name) const;
  /// Writes the spans, with their self times (duration minus the part
  /// covered by child spans), as a JSON array to \p Path.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// What a workload gets to work with.
struct Context {
  const Options &Opts;
  Checks &Check;
  Metrics &Out;
  Tracer &Trace;
};

/// Peak resident set of this process in MB (getrusage).
double peakRssMb();

/// Keeps every pool thread busy for \p Seconds. On a shared or virtual
/// host the first second of work after an idle spell runs several times
/// slower; this spends it before anything is timed.
void warmUp(double Seconds);

/// Median time of a nearly empty ThreadPool::global().parallelFor, in
/// microseconds: the dispatch cost every batch pays.
double poolDispatchMicros(unsigned Calls);

/// Runs one warm-up round, Body(false), whose outputs are checked but
/// whose timings are dropped (first-touch page faults and cold caches are
/// not what a serving process pays per call); then runs Body(true) until
/// \p Seconds have passed, and at least \p MinRounds times.
template <typename Fn>
void timedRounds(double Seconds, unsigned MinRounds, Fn Body) {
  Body(false);
  const double Start = now();
  for (unsigned Round = 0; Round < MinRounds || now() - Start < Seconds;
       ++Round)
    Body(true);
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
