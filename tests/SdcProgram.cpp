//===- tests/SdcProgram.cpp - Algorithm-level SDC emulation -------------===//

#include "SdcProgram.h"

#include "core/Generator.h"
#include "emulation/SdcEmulation.h"
#include "support/Format.h"

#include <cassert>

using namespace scg;

SdcStarProgram scg::makeRandomSdcProgram(unsigned K, unsigned Steps,
                                         uint64_t Seed) {
  assert(K >= 2 && "need at least one dimension");
  SplitMix64 Rng(Seed);
  SdcStarProgram Program;
  Program.Dims.reserve(Steps);
  for (unsigned S = 0; S != Steps; ++S)
    Program.Dims.push_back(2 + Rng.nextBelow(K - 1));
  return Program;
}

Permutation scg::sdcProgramEffect(unsigned K,
                                  const SdcStarProgram &Program) {
  Permutation Effect = Permutation::identity(K);
  for (unsigned Dim : Program.Dims)
    Effect = Effect.compose(makeTransposition(K, Dim).Sigma);
  return Effect;
}

std::vector<GenIndex>
scg::translateSdcProgram(const SuperCayleyGraph &Host,
                         const SdcStarProgram &Program) {
  std::vector<GenIndex> Seq;
  for (unsigned Dim : Program.Dims) {
    GeneratorPath Path = starDimensionPath(Host, Dim);
    Seq.insert(Seq.end(), Path.hops().begin(), Path.hops().end());
  }
  return Seq;
}

SdcProgramRun scg::runSdcProgram(const ExplicitScg &Host,
                                 const SdcStarProgram &Program) {
  const SuperCayleyGraph &Net = Host.network();
  std::vector<GenIndex> Seq = translateSdcProgram(Net, Program);

  SdcProgramRun Run;
  Run.StarSteps = Program.Dims.size();
  if (Seq.empty()) {
    Run.LockStep = Run.PlacementOk = true;
    return Run;
  }

  // Simulate: one datum per node, the translated sequence both as every
  // datum's route and as the dimension schedule. Every active step moves
  // every datum exactly one hop, so the run must be contention-free.
  NetworkSimulator Sim(Host, CommModel::SingleDimension);
  Sim.setDimensionCycle(Seq);
  for (NodeId U = 0; U != Host.numNodes(); ++U)
    Sim.injectPacket(U, Seq);
  SimulationResult Result = Sim.run(/*MaxSteps=*/Seq.size() + 1);
  Run.HostSteps = Result.Steps;
  Run.Slowdown = double(Run.HostSteps) / double(Run.StarSteps);
  Run.LockStep = Result.Completed && Result.Steps == Seq.size() &&
                 Result.MaxQueueLength <= 1;

  // Placement check: walking the sequence from any node must land on
  // node o effect; spot-check a spread of sources.
  Permutation Effect =
      sdcProgramEffect(Net.numSymbols(), Program);
  Run.PlacementOk = true;
  for (NodeId U = 0; U < Host.numNodes();
       U += std::max<NodeId>(1, Host.numNodes() / 17)) {
    NodeId At = U;
    for (GenIndex G : Seq)
      At = Host.next(At, G);
    if (Host.label(At) != Host.label(U).compose(Effect)) {
      Run.PlacementOk = false;
      break;
    }
  }
  return Run;
}
