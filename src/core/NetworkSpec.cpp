//===- core/NetworkSpec.cpp - Parse network spec strings ------------------===//

#include "core/NetworkSpec.h"

#include <cctype>

using namespace scg;

namespace {

/// Labels store one symbol per byte, so k = l * n + 1 is at most 255.
constexpr uint64_t MaxSymbols = 255;

/// Parses "name(a)" or "name(a,b)"; returns false on malformed input.
bool splitSpec(const std::string &Spec, std::string &Name, unsigned &A,
               bool &HasB, unsigned &B) {
  size_t Open = Spec.find('(');
  if (Open == std::string::npos || Spec.back() != ')')
    return false;
  Name = Spec.substr(0, Open);
  std::string Args = Spec.substr(Open + 1, Spec.size() - Open - 2);
  size_t Comma = Args.find(',');
  auto ParseNumber = [](const std::string &Text, unsigned &Out) {
    if (Text.empty())
      return false;
    unsigned Value = 0;
    for (char C : Text) {
      if (!std::isdigit(static_cast<unsigned char>(C)))
        return false;
      Value = Value * 10 + unsigned(C - '0');
      if (Value > 1000000)
        return false;
    }
    Out = Value;
    return true;
  };
  if (Comma == std::string::npos) {
    HasB = false;
    return ParseNumber(Args, A);
  }
  HasB = true;
  return ParseNumber(Args.substr(0, Comma), A) &&
         ParseNumber(Args.substr(Comma + 1), B);
}

} // namespace

std::optional<SuperCayleyGraph>
scg::parseNetworkSpec(const std::string &Spec) {
  std::string Name;
  unsigned A = 0, B = 0;
  bool HasB = false;
  if (!splitSpec(Spec, Name, A, HasB, B))
    return std::nullopt;

  if (!HasB) {
    if (A < 2 || A > MaxSymbols)
      return std::nullopt;
    if (Name == "star")
      return SuperCayleyGraph::star(A);
    if (Name == "bubble-sort")
      return SuperCayleyGraph::bubbleSort(A);
    if (Name == "TN")
      return SuperCayleyGraph::transpositionNetwork(A);
    if (Name == "rotator")
      return SuperCayleyGraph::rotator(A);
    if (Name == "IS")
      return SuperCayleyGraph::insertionSelection(A);
    return std::nullopt;
  }

  // Both factors are at most 10^6, so the 64-bit product cannot overflow.
  if (A < 2 || B < 1 || uint64_t(A) * B + 1 > MaxSymbols)
    return std::nullopt;
  struct Entry {
    const char *Name;
    NetworkKind Kind;
  };
  static const Entry Table[] = {
      {"MS", NetworkKind::MacroStar},
      {"RS", NetworkKind::RotationStar},
      {"complete-RS", NetworkKind::CompleteRotationStar},
      {"MR", NetworkKind::MacroRotator},
      {"RR", NetworkKind::RotationRotator},
      {"complete-RR", NetworkKind::CompleteRotationRotator},
      {"MIS", NetworkKind::MacroIS},
      {"RIS", NetworkKind::RotationIS},
      {"complete-RIS", NetworkKind::CompleteRotationIS},
  };
  for (const Entry &E : Table)
    if (Name == E.Name)
      return SuperCayleyGraph::create(E.Kind, A, B);
  return std::nullopt;
}
