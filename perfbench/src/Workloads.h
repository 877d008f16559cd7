//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads (see perfbench/WORKLOADS.md for why each exists).
/// Every runner sets up, checks every output it produces, and fills the
/// context's metrics: untraced runs set call_s, round_s and setup_s;
/// traced runs set the per-layer metrics of the layers they exercise.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace scg {
class ExplicitScg;
}

namespace perfbench {

/// traffic_saturated (\p Saturated) and traffic_sparse.
void runTraffic(Context &C, bool Saturated);
/// query_serving.
void runQuery(Context &C);
/// graph_sweeps.
void runGraph(Context &C);

/// Checks an explicit network's neighbor table against its
/// seed-independent golden checksum under \p Key.
void checkExplicit(Context &C, const scg::ExplicitScg &Net,
                   const std::string &Key);

/// Whether a run times another set-up after \p Done (setup_s is their
/// median): once when traced, else at least five and, for cheap set-ups,
/// until about a second has gone into them.
inline bool moreSetups(const Options &Opts, const Samples &Done) {
  if (Opts.Trace)
    return Done.empty();
  return Done.size() < 5 || (Done.sum() < 1.0 && Done.size() < 200);
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
