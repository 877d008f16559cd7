//===- emulation/DimensionMap.cpp - Star dimension decomposition ---------===//

#include "emulation/DimensionMap.h"

#include <cassert>

using namespace scg;

DimensionParts scg::decomposeDimension(unsigned J, unsigned N) {
  assert(J >= 2 && N >= 1 && "dimension must be >= 2");
  return {(J - 2) % N, (J - 2) / N};
}
