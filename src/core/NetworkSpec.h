//===- core/NetworkSpec.h - Parse network spec strings ---------*- C++ -*-===//
//
// Part of the super-cayley-graphs project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-trips the display names of SuperCayleyGraph::name(): parses spec
/// strings like "MS(4,3)", "complete-RIS(3,2)", "star(7)", or "IS(6)"
/// back into network descriptors. Used by the command-line explorer and
/// handy for config-driven experiments.
///
//===----------------------------------------------------------------------===//

#ifndef SCG_CORE_NETWORKSPEC_H
#define SCG_CORE_NETWORKSPEC_H

#include "core/SuperCayleyGraph.h"

#include <optional>
#include <string>

namespace scg {

/// Parses \p Spec ("<kind>(<k>)" for single-level networks,
/// "<kind>(<l>,<n>)" for the box classes); returns nullopt on malformed
/// input and on networks the library cannot build (k < 2, l < 2, n < 1,
/// or k = l * n + 1 above 255). Accepts every name networkKindName
/// produces except "T-tree" (which needs its edge list).
std::optional<SuperCayleyGraph> parseNetworkSpec(const std::string &Spec);

} // namespace scg

#endif // SCG_CORE_NETWORKSPEC_H
