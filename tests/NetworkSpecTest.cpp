//===- tests/NetworkSpecTest.cpp - Spec string parsing tests -------------===//

#include "core/NetworkSpec.h"

#include <gtest/gtest.h>

using namespace scg;

TEST(NetworkSpec, RoundTripsAllNames) {
  std::vector<SuperCayleyGraph> Nets;
  Nets.push_back(SuperCayleyGraph::star(6));
  Nets.push_back(SuperCayleyGraph::bubbleSort(5));
  Nets.push_back(SuperCayleyGraph::transpositionNetwork(5));
  Nets.push_back(SuperCayleyGraph::rotator(6));
  Nets.push_back(SuperCayleyGraph::insertionSelection(7));
  for (NetworkKind Kind :
       {NetworkKind::MacroStar, NetworkKind::RotationStar,
        NetworkKind::CompleteRotationStar, NetworkKind::MacroRotator,
        NetworkKind::RotationRotator, NetworkKind::CompleteRotationRotator,
        NetworkKind::MacroIS, NetworkKind::RotationIS,
        NetworkKind::CompleteRotationIS})
    Nets.push_back(SuperCayleyGraph::create(Kind, 3, 2));

  for (const SuperCayleyGraph &Net : Nets) {
    auto Parsed = parseNetworkSpec(Net.name());
    ASSERT_TRUE(Parsed) << Net.name();
    EXPECT_EQ(Parsed->name(), Net.name());
    EXPECT_EQ(Parsed->kind(), Net.kind());
    EXPECT_EQ(Parsed->degree(), Net.degree());
  }
}

TEST(NetworkSpec, RejectsMalformed) {
  for (const char *Bad :
       {"", "MS", "MS(", "MS)", "MS()", "MS(4)", "star(4,3)", "star(x)",
        "frob(3,2)", "MS(4,3) ", "MS(1,3)", "star(1)", "MS(4,0)",
        "T-tree(5)"})
    EXPECT_FALSE(parseNetworkSpec(Bad)) << Bad;
}

TEST(NetworkSpec, RejectsMoreThan255Symbols) {
  // A label stores one symbol per byte: k = l * n + 1 <= 255. 65536 * 65536
  // wraps a 32-bit product to 0, so it also checks the product is exact.
  for (const char *Bad : {"star(256)", "IS(1000)", "MS(200,2)", "MS(2,128)",
                          "RS(128,2)", "MS(1000000,1000000)",
                          "complete-RIS(65536,65536)"})
    EXPECT_FALSE(parseNetworkSpec(Bad)) << Bad;
  for (const char *Largest : {"star(255)", "MS(2,127)", "RS(127,2)"}) {
    auto Net = parseNetworkSpec(Largest);
    ASSERT_TRUE(Net) << Largest;
    EXPECT_EQ(Net->numSymbols(), 255u) << Largest;
  }
}

TEST(NetworkSpec, ParsesSingleLevel) {
  auto Star = parseNetworkSpec("star(7)");
  ASSERT_TRUE(Star);
  EXPECT_EQ(Star->numSymbols(), 7u);
  auto Is = parseNetworkSpec("IS(5)");
  ASSERT_TRUE(Is);
  EXPECT_EQ(Is->degree(), 8u);
}

TEST(NetworkSpec, ParsesBoxClasses) {
  auto Net = parseNetworkSpec("complete-RIS(4,3)");
  ASSERT_TRUE(Net);
  EXPECT_EQ(Net->kind(), NetworkKind::CompleteRotationIS);
  EXPECT_EQ(Net->numBoxes(), 4u);
  EXPECT_EQ(Net->ballsPerBox(), 3u);
}
