//===- routing/Path.cpp - Generator-labeled paths ------------------------===//

#include "routing/Path.h"

#include "support/Format.h"

using namespace scg;

Permutation GeneratorPath::netEffect(const SuperCayleyGraph &Net) const {
  Permutation Product = Permutation::identity(Net.numSymbols());
  for (GenIndex G : Hops)
    Product = Product.compose(Net.generators()[G].Sigma);
  return Product;
}

Permutation GeneratorPath::endpoint(const SuperCayleyGraph &Net,
                                    const Permutation &Start) const {
  Permutation Cur = Start;
  for (GenIndex G : Hops)
    Cur = Net.neighbor(Cur, G);
  return Cur;
}

bool GeneratorPath::connects(const SuperCayleyGraph &Net,
                             const Permutation &Start,
                             const Permutation &End) const {
  return endpoint(Net, Start) == End;
}

std::string GeneratorPath::str(const SuperCayleyGraph &Net) const {
  std::vector<std::string> Names;
  Names.reserve(Hops.size());
  for (GenIndex G : Hops)
    Names.push_back(Net.generators()[G].Name);
  return join(Names, " ");
}
