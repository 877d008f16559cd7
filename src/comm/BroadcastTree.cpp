//===- comm/BroadcastTree.cpp - Translation-invariant trees --------------===//

#include "comm/BroadcastTree.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace scg;

BroadcastTree::BroadcastTree(const ExplicitScg &Net, unsigned Rotation)
    : Depth(Net.numNodes(), std::numeric_limits<uint32_t>::max()),
      Children(Net.numNodes()) {
  // BFS queue: every node enters once, so a vector read from a head index
  // is the whole FIFO.
  std::vector<NodeId> Queue;
  Queue.reserve(Net.numNodes());
  Depth[0] = 0;
  Queue.push_back(0);
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    NodeId W = Queue[Head];
    // Rotate the generator order per node so tree-edge labels spread evenly
    // across the links; the per-link MNB load is the number of tree edges
    // with a given label, so balance here is completion time there.
    for (unsigned Offset = 0; Offset != Net.degree(); ++Offset) {
      GenIndex G = (W + Rotation + Offset) % Net.degree();
      NodeId V = Net.next(W, G);
      if (Depth[V] != std::numeric_limits<uint32_t>::max())
        continue;
      Depth[V] = Depth[W] + 1;
      Height = std::max(Height, Depth[V]);
      Children[W].push_back(G);
      ++EdgeCount;
      Queue.push_back(V);
    }
  }
  assert(EdgeCount + 1 == Net.numNodes() && "network is disconnected");
}
