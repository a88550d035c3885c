//===- support/IntervalTree.cpp - Augmented AVL interval tree -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/IntervalTree.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace regmon;

struct IntervalTree::Node {
  Entry Item;
  Addr MaxEnd; ///< Maximum End over this node's subtree.
  int Height = 1;
  std::unique_ptr<Node> Left;
  std::unique_ptr<Node> Right;

  explicit Node(Entry E) : Item(E), MaxEnd(E.End) {}
};

namespace {

using NodePtr = std::unique_ptr<IntervalTree::Node>;

int height(const NodePtr &N) { return N ? N->Height : 0; }

Addr maxEnd(const NodePtr &N) { return N ? N->MaxEnd : 0; }

void update(NodePtr &N) {
  N->Height = 1 + std::max(height(N->Left), height(N->Right));
  N->MaxEnd =
      std::max({N->Item.End, maxEnd(N->Left), maxEnd(N->Right)});
}

int balanceFactor(const NodePtr &N) {
  return height(N->Left) - height(N->Right);
}

void rotateRight(NodePtr &N) {
  NodePtr L = std::move(N->Left);
  N->Left = std::move(L->Right);
  update(N);
  L->Right = std::move(N);
  N = std::move(L);
  update(N);
}

void rotateLeft(NodePtr &N) {
  NodePtr R = std::move(N->Right);
  N->Right = std::move(R->Left);
  update(N);
  R->Left = std::move(N);
  N = std::move(R);
  update(N);
}

void rebalance(NodePtr &N) {
  update(N);
  const int Bf = balanceFactor(N);
  if (Bf > 1) {
    if (balanceFactor(N->Left) < 0)
      rotateLeft(N->Left);
    rotateRight(N);
  } else if (Bf < -1) {
    if (balanceFactor(N->Right) > 0)
      rotateRight(N->Right);
    rotateLeft(N);
  }
}

/// Total order on entries so duplicates of (Start, End) with distinct values
/// have deterministic placement.
bool entryLess(const IntervalTree::Entry &A, const IntervalTree::Entry &B) {
  if (A.Start != B.Start)
    return A.Start < B.Start;
  if (A.End != B.End)
    return A.End < B.End;
  return A.Value < B.Value;
}

void insertNode(NodePtr &N, IntervalTree::Entry E) {
  if (!N) {
    N = std::make_unique<IntervalTree::Node>(E);
    return;
  }
  if (entryLess(E, N->Item))
    insertNode(N->Left, E);
  else
    insertNode(N->Right, E);
  rebalance(N);
}

/// Detaches and returns the minimum node of the subtree rooted at N.
NodePtr detachMin(NodePtr &N) {
  if (!N->Left) {
    NodePtr Min = std::move(N);
    N = std::move(Min->Right);
    return Min;
  }
  NodePtr Min = detachMin(N->Left);
  rebalance(N);
  return Min;
}

bool eraseNode(NodePtr &N, const IntervalTree::Entry &E) {
  if (!N)
    return false;
  bool Erased;
  if (entryLess(E, N->Item)) {
    Erased = eraseNode(N->Left, E);
  } else if (entryLess(N->Item, E)) {
    Erased = eraseNode(N->Right, E);
  } else {
    // Found. Standard BST deletion with AVL rebalancing on the way up.
    if (!N->Left) {
      N = std::move(N->Right);
    } else if (!N->Right) {
      N = std::move(N->Left);
    } else {
      NodePtr Succ = detachMin(N->Right);
      Succ->Left = std::move(N->Left);
      Succ->Right = std::move(N->Right);
      N = std::move(Succ);
    }
    Erased = true;
  }
  if (N && Erased)
    rebalance(N);
  return Erased;
}

template <typename Callback>
void stabNode(const IntervalTree::Node *N, Addr Point, Callback &&Visit) {
  while (N) {
    // Prune: nothing in this subtree can contain Point if every interval
    // ends at or before it.
    if (N->MaxEnd <= Point)
      return;
    // All intervals in the left subtree start at or before N's start, so
    // the left side must always be explored (subject to the MaxEnd prune).
    stabNode(N->Left.get(), Point, Visit);
    if (N->Item.Start <= Point && Point < N->Item.End)
      Visit(N->Item.Value);
    // Intervals right of N start at N->Item.Start or later; if that is
    // already past Point none of them can contain it.
    if (Point < N->Item.Start)
      return;
    N = N->Right.get();
  }
}

void collect(const IntervalTree::Node *N,
             std::vector<IntervalTree::Entry> &Out) {
  if (!N)
    return;
  collect(N->Left.get(), Out);
  Out.push_back(N->Item);
  collect(N->Right.get(), Out);
}

bool checkNode(const IntervalTree::Node *N, Addr &MaxEndOut, int &HeightOut) {
  if (!N) {
    MaxEndOut = 0;
    HeightOut = 0;
    return true;
  }
  Addr LeftMax, RightMax;
  int LeftH, RightH;
  if (!checkNode(N->Left.get(), LeftMax, LeftH) ||
      !checkNode(N->Right.get(), RightMax, RightH))
    return false;
  if (std::abs(LeftH - RightH) > 1)
    return false;
  HeightOut = 1 + std::max(LeftH, RightH);
  if (N->Height != HeightOut)
    return false;
  MaxEndOut = std::max({N->Item.End, LeftMax, RightMax});
  if (N->MaxEnd != MaxEndOut)
    return false;
  if (N->Left && entryLess(N->Item, N->Left->Item))
    return false;
  if (N->Right && entryLess(N->Right->Item, N->Item))
    return false;
  return true;
}

} // namespace

IntervalTree::IntervalTree() = default;
IntervalTree::~IntervalTree() = default;
IntervalTree::IntervalTree(IntervalTree &&) noexcept = default;
IntervalTree &IntervalTree::operator=(IntervalTree &&) noexcept = default;

void IntervalTree::insert(Addr Start, Addr End, std::uint32_t Value) {
  assert(Start < End && "interval must be non-empty");
  insertNode(Root, Entry{Start, End, Value});
  ++Count;
}

bool IntervalTree::erase(Addr Start, Addr End, std::uint32_t Value) {
  const bool Erased = eraseNode(Root, Entry{Start, End, Value});
  if (Erased)
    --Count;
  return Erased;
}

void IntervalTree::stab(Addr Point, std::vector<std::uint32_t> &Out) const {
  stabNode(Root.get(), Point,
           [&Out](std::uint32_t V) { Out.push_back(V); });
}

std::vector<IntervalTree::Entry> IntervalTree::entries() const {
  std::vector<Entry> Out;
  Out.reserve(Count);
  collect(Root.get(), Out);
  return Out;
}

void IntervalTree::clear() {
  // Destroy iteratively to avoid deep recursive destructor chains on
  // degenerate shapes (AVL keeps depth logarithmic, but be safe).
  std::vector<NodePtr> Stack;
  if (Root)
    Stack.push_back(std::move(Root));
  while (!Stack.empty()) {
    NodePtr N = std::move(Stack.back());
    Stack.pop_back();
    if (N->Left)
      Stack.push_back(std::move(N->Left));
    if (N->Right)
      Stack.push_back(std::move(N->Right));
  }
  Count = 0;
}

bool IntervalTree::checkInvariants() const {
  Addr MaxEndOut;
  int HeightOut;
  return checkNode(Root.get(), MaxEndOut, HeightOut);
}
