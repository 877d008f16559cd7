//===- tests/SimGolden.h - Frozen simulator outputs -------------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-file support for the simulator suites, and the k = 4 family
/// list they sweep. A GoldenStream observer digests a run's event stream
/// (onStep count, link activity, arrivals, queue samples, and every
/// (packet, delivery step) pair in delivery order); render() turns a
/// result plus its stream into one line; and expectGolden() compares that
/// line with the one frozen under the same name in
/// tests/golden/simulator.txt.
///
/// Running a suite with SCG_PRINT_GOLDENS=1 prints "GOLDEN <name>\t<line>"
/// for every case instead of comparing, which is how the file is
/// regenerated after an intended behavior change.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_SIMGOLDEN_H
#define SCG_TESTS_SIMGOLDEN_H

#include "comm/SimObserver.h"
#include "comm/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace scg {

/// All network families at k = 4: the single-level classes plus every box
/// class at (l, n) = (3, 1) (k = l * n + 1).
inline std::vector<SuperCayleyGraph> familiesAtK4() {
  std::vector<SuperCayleyGraph> Nets;
  Nets.push_back(SuperCayleyGraph::star(4));
  Nets.push_back(SuperCayleyGraph::bubbleSort(4));
  Nets.push_back(SuperCayleyGraph::transpositionNetwork(4));
  Nets.push_back(SuperCayleyGraph::rotator(4));
  Nets.push_back(SuperCayleyGraph::insertionSelection(4));
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS})
    Nets.push_back(SuperCayleyGraph::create(Kind, 3, 1));
  return Nets;
}

/// Digests everything a run reports through the observer hooks.
struct GoldenStream final : SimObserver {
  uint64_t OnSteps = 0, Started = 0, Occupancy = 0, Arrivals = 0;
  uint64_t Deliveries = 0, QueuedSum = 0;
  uint64_t Digest = 1469598103934665603ull; ///< FNV-1a over deliveries.

  void onStep(const NetworkSimulator &, const StepEvents &E) override {
    ++OnSteps;
    for (const LinkActivity &A : E.Active)
      A.Started ? ++Started : ++Occupancy;
    Arrivals += E.Arrivals.size();
    QueuedSum += E.QueuedPackets;
    for (uint32_t Id : E.Deliveries) {
      ++Deliveries;
      mix(Id);
      mix(E.Step);
    }
  }

private:
  void mix(uint64_t V) {
    for (int B = 0; B != 8; ++B) {
      Digest ^= (V >> (8 * B)) & 0xFF;
      Digest *= 1099511628211ull;
    }
  }
};

namespace golden {

inline std::string num(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

inline std::string render(const SimulationResult &R) {
  std::ostringstream OS;
  OS << "completed=" << R.Completed << " steps=" << R.Steps
     << " delivered=" << R.Delivered << " tx=" << R.Transmissions
     << " busy=" << R.BusyLinkSteps << " maxq=" << R.MaxQueueLength
     << " util=" << num(R.LinkUtilization)
     << " deferred=" << R.DeferredInjections << "/" << R.DeferredSteps;
  return OS.str();
}

inline std::string render(const GoldenStream &S) {
  std::ostringstream OS;
  OS << "onsteps=" << S.OnSteps << " started=" << S.Started
     << " occupancy=" << S.Occupancy << " arrivals=" << S.Arrivals
     << " deliveries=" << S.Deliveries << " queued=" << S.QueuedSum
     << " digest=" << S.Digest;
  return OS.str();
}

inline std::string render(const SimulationResult &R, const GoldenStream &S) {
  return render(R) + " | " + render(S);
}

/// Every deterministic field of a driver result (SetupSeconds is wall
/// clock) plus the stream of an extra observer attached to the run.
inline std::string render(const TrafficLoadResult &R, const GoldenStream &S) {
  std::ostringstream OS;
  OS << render(R.Sim) << " | offered=" << R.Offered
     << " offered_rate=" << num(R.OfferedRate)
     << " delivered_rate=" << num(R.DeliveredRate)
     << " hops=" << num(R.MeanHops) << " latency=" << num(R.MeanLatency)
     << " p50=" << R.P50Latency << " p99=" << R.P99Latency
     << " queued=" << num(R.MeanQueued) << " labels=" << R.DistinctLabels
     << " dedup=" << num(R.DedupFactor) << " | " << render(S);
  return OS.str();
}

/// simulateTrafficLoad with a GoldenStream riding along; returns the
/// result and stores its rendering in \p Line.
inline TrafficLoadResult runTraffic(const ExplicitScg &Net, CommModel Model,
                                    const WorkloadSpec &Spec, uint64_t Steps,
                                    TrafficLoadOptions Options,
                                    std::string &Line) {
  GoldenStream Stream;
  Options.Observers.push_back(&Stream);
  TrafficLoadResult R = simulateTrafficLoad(Net, Model, Spec, Steps, Options);
  Line = render(R, Stream);
  return R;
}

inline const std::map<std::string, std::string> &frozen() {
  static const std::map<std::string, std::string> Lines = [] {
    std::map<std::string, std::string> M;
    std::ifstream In(SCG_GOLDEN_FILE);
    std::string Line;
    while (std::getline(In, Line)) {
      size_t Tab = Line.find('\t');
      if (!Line.empty() && Line[0] != '#' && Tab != std::string::npos)
        M[Line.substr(0, Tab)] = Line.substr(Tab + 1);
    }
    return M;
  }();
  return Lines;
}

} // namespace golden

/// Compares \p Actual with the line frozen under \p Name (or prints it
/// when SCG_PRINT_GOLDENS is set).
inline void expectGolden(const std::string &Name, const std::string &Actual) {
  if (std::getenv("SCG_PRINT_GOLDENS")) {
    std::printf("GOLDEN %s\t%s\n", Name.c_str(), Actual.c_str());
    return;
  }
  auto It = golden::frozen().find(Name);
  ASSERT_NE(It, golden::frozen().end()) << "no golden for " << Name;
  EXPECT_EQ(It->second, Actual) << Name;
}

} // namespace scg

#endif // SCG_TESTS_SIMGOLDEN_H
