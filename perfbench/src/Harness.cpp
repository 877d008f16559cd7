//===- perfbench/src/Harness.cpp - Benchmark harness ----------------------===//

#include "Harness.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include <sys/resource.h>

using namespace perfbench;

double perfbench::now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

std::vector<uint8_t> Rng::permutation(unsigned K) {
  std::vector<uint8_t> W(K);
  std::iota(W.begin(), W.end(), uint8_t(0));
  for (unsigned I = K; I > 1; --I)
    std::swap(W[I - 1], W[below(I)]);
  return W;
}

uint64_t perfbench::deriveSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed * 0x100000001B3ULL + Stream);
  R.next();
  return R.next();
}

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

double Samples::median() const { return percentile(50); }

double Samples::mean() const {
  return Values.empty() ? 0.0 : sum() / double(Values.size());
}

double Samples::sum() const {
  return std::accumulate(Values.begin(), Values.end(), 0.0);
}

double Samples::percentile(double P) const {
  if (Values.empty())
    return 0.0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  if (P == 50 && Sorted.size() % 2 == 0)
    return (Sorted[Sorted.size() / 2 - 1] + Sorted[Sorted.size() / 2]) / 2;
  size_t Rank = size_t(std::ceil(P / 100.0 * double(Sorted.size())));
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

unsigned Samples::tailPercent() const {
  for (unsigned P : {99u, 95u, 90u, 75u})
    if (double(Values.size()) * (100 - P) / 100.0 >= 10.0)
      return P;
  return 0;
}

std::string perfbench::fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string perfbench::fmt(uint64_t V) { return std::to_string(V); }

uint64_t perfbench::fnv1a(const void *Data, size_t Size, uint64_t Hash) {
  const auto *Bytes = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I)
    Hash = (Hash ^ Bytes[I]) * 0x100000001B3ULL;
  return Hash;
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

Checks::Checks(const Options &Opts) : Opts(Opts) {
  std::ifstream In(PERFBENCH_GOLDENS);
  if (!In) {
    Op Unreadable(*this);
    Unreadable.expect(false, "cannot read goldens " PERFBENCH_GOLDENS);
    return;
  }
  std::string Line;
  const std::string Seed = std::to_string(Opts.Seed);
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Size, SeedField, Key, Value;
    if (!(Fields >> Size >> SeedField >> Key >> Value) ||
        Size != Opts.sizeName())
      continue;
    if (SeedField == "*")
      AnySeedGoldens[Key] = Value;
    else if (SeedField == Seed)
      SeedGoldens[Key] = Value;
  }
}

Checks::Op::~Op() {
  ++Owner.Attempted;
  if (!Ok)
    ++Owner.Failed;
}

bool Checks::Op::expect(bool Cond, const std::string &What) {
  if (Cond)
    return true;
  Ok = false;
  // Report the first few failures; the rest are still counted.
  if (Owner.Reported++ < 20)
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  return false;
}

void Checks::Op::golden(const std::string &Name, const std::string &Value,
                        bool SeedIndependent) {
  const Options &Opts = Owner.Opts;
  const std::string Key = Opts.Workload + "." + Name;
  if (Opts.EmitGoldens) {
    std::printf("GOLDEN %s %s %s %s\n", Opts.sizeName(),
                SeedIndependent ? "*" : std::to_string(Opts.Seed).c_str(),
                Key.c_str(), Value.c_str());
    return;
  }
  const auto &Table = SeedIndependent ? Owner.AnySeedGoldens
                                      : Owner.SeedGoldens;
  if (!SeedIndependent && Table.empty())
    return; // no goldens for this seed: determinism checks still apply.
  auto It = Table.find(Key);
  if (It == Table.end()) {
    expect(false, "no golden value for " + Key);
    return;
  }
  expect(It->second == Value,
         Key + " = " + Value + ", golden " + It->second);
}

void Checks::Op::goldens(const std::string &Prefix, const Fingerprint &F,
                         bool SeedIndependent) {
  for (const auto &[Field, Value] : F)
    golden(Prefix + "." + Field, Value, SeedIndependent);
}

void Checks::Op::same(const std::string &Prefix, const Fingerprint &Expected,
                      const Fingerprint &Actual) {
  if (!expect(Expected.size() == Actual.size(), Prefix + ": field count"))
    return;
  for (size_t I = 0; I != Expected.size(); ++I)
    expect(Expected[I] == Actual[I],
           Prefix + "." + Actual[I].first + " = " + Actual[I].second +
               ", earlier call gave " + Expected[I].second);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

double Metrics::get(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0.0 : It->second;
}

void Metrics::report(const std::string &Name, const Samples &S,
                     const std::string &Unit, double Scale) {
  std::printf("%-28s median %.6g %s", Name.c_str(), S.median() * Scale,
              Unit.c_str());
  if (unsigned P = S.tailPercent())
    std::printf("  p%u %.6g %s", P, S.percentile(P) * Scale, Unit.c_str());
  else
    std::printf("  max %.6g %s", S.percentile(100) * Scale, Unit.c_str());
  std::printf("  n %zu\n", S.size());
}

void Metrics::report(const std::string &Name, double Value,
                     const std::string &Unit) {
  std::printf("%-28s %.6g %s\n", Name.c_str(), Value, Unit.c_str());
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Scope::Scope(Tracer &T, const std::string &Name)
    : T(T), Id(int(T.Spans.size())) {
  T.Spans.push_back(
      {Name, T.Stack.empty() ? -1 : T.Stack.back(), now(), 0.0});
  T.Stack.push_back(Id);
}

double Tracer::Scope::close() {
  Span &S = T.Spans[Id];
  if (Open) {
    S.End = now();
    Open = false;
    T.Stack.pop_back();
  }
  return S.End - S.Start;
}

double Tracer::total(const std::string &Name) const {
  double Sum = 0;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Sum += S.End - S.Start;
  return Sum;
}

bool Tracer::write(const std::string &Path) const {
  std::vector<double> ChildTime(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildTime[S.Parent] += S.End - S.Start;
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}%s\n",
                 I, S.Name.c_str(), S.Parent, S.Start, S.End,
                 S.End - S.Start - ChildTime[I],
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Process-level measurements
//===----------------------------------------------------------------------===//

double perfbench::peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

void perfbench::warmUp(double Seconds) {
  scg::ThreadPool &Pool = scg::ThreadPool::global();
  const uint64_t Items = Pool.numThreads();
  std::vector<uint64_t> Sink(Items, 0);
  const double Until = now() + Seconds;
  while (now() < Until)
    Pool.parallelFor(
        0, Items,
        [&](uint64_t I) {
          uint64_t X = Sink[I];
          for (unsigned Step = 0; Step != 100000; ++Step)
            X = X * 6364136223846793005ULL + 1442695040888963407ULL;
          Sink[I] = X;
        },
        1);
}

double perfbench::poolDispatchMicros(unsigned Calls) {
  scg::ThreadPool &Pool = scg::ThreadPool::global();
  const uint64_t Items = Pool.numThreads();
  std::vector<uint64_t> Sink(Items, 0);
  Samples S;
  for (unsigned C = 0; C != Calls; ++C) {
    double T0 = now();
    Pool.parallelFor(0, Items, [&](uint64_t I) { ++Sink[I]; }, 1);
    S.add(now() - T0);
  }
  return S.median() * 1e6;
}
