//===- tests/SdcProgram.h - Algorithm-level SDC emulation -----*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Theorem 1 at algorithm granularity. An SDC algorithm skeleton for the
/// k-star is a sequence of dimensions: at step t every node forwards its
/// datum along its dimension Dims[t] link, so the program's data movement
/// is the permutation T_{Dims[0]} o T_{Dims[1]} o ... (every datum from
/// node U ends at U composed with that product). Emulating the program on
/// a super Cayley graph replaces each step by the host word of
/// starDimensionPath; the net effects agree by construction, and because
/// at every emulated step each node forwards exactly one datum on the one
/// active generator, the host run is contention-free and finishes in
/// exactly sum-of-path-lengths steps -- the slowdown of Theorems 1-3,
/// now measured end-to-end through the packet simulator.
///
/// Test code: no pipeline runs SDC programs, so this end-to-end check of
/// the paper's "any SDC algorithm" claim lives next to SdcProgramTest.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_TESTS_SDCPROGRAM_H
#define SCG_TESTS_SDCPROGRAM_H

#include "comm/Simulator.h"
#include "routing/Path.h"

namespace scg {

/// A star-graph SDC algorithm skeleton: one dimension (2..k) per step.
struct SdcStarProgram {
  std::vector<unsigned> Dims;
};

/// Generates a pseudo-random \p Steps-step program for the k-star.
SdcStarProgram makeRandomSdcProgram(unsigned K, unsigned Steps,
                                    uint64_t Seed);

/// The program's data-movement permutation: a datum starting at node U
/// ends at U o effect.
Permutation sdcProgramEffect(unsigned K, const SdcStarProgram &Program);

/// Translates the program into the host's generator sequence (one entry
/// per host SDC step); requires supportsStarEmulation(Host).
std::vector<GenIndex> translateSdcProgram(const SuperCayleyGraph &Host,
                                          const SdcStarProgram &Program);

/// Result of executing a translated program on the simulator.
struct SdcProgramRun {
  uint64_t StarSteps = 0;  ///< program length.
  uint64_t HostSteps = 0;  ///< simulated steps on the host.
  double Slowdown = 0.0;   ///< HostSteps / StarSteps.
  bool LockStep = false;   ///< every datum advanced every step (max queue 1,
                           ///< no contention).
  bool PlacementOk = false; ///< final placement matches the star effect.
};

/// Runs the program on \p Host under the single-dimension model: one datum
/// per node, the translated generator cycle as the dimension schedule.
/// Verifies contention-freedom and placement correctness.
SdcProgramRun runSdcProgram(const ExplicitScg &Host,
                            const SdcStarProgram &Program);

} // namespace scg

#endif // SCG_TESTS_SDCPROGRAM_H
