#include "pbn/numbering.h"

namespace vpbn::num {

Numbering Numbering::Number(const xml::Document& doc) {
  Numbering out;
  out.numbers_.resize(doc.num_nodes());

  // Iterative pre-order walk carrying the parent's number.
  struct Frame {
    xml::NodeId node;
    uint32_t ordinal;
    const Pbn* parent_pbn;
  };
  static const Pbn kRootPrefix;
  std::vector<Frame> stack;
  const auto& roots = doc.roots();
  for (size_t i = roots.size(); i > 0; --i) {
    stack.push_back(
        {roots[i - 1], static_cast<uint32_t>(i), &kRootPrefix});
  }
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    Pbn number = f.parent_pbn->Child(f.ordinal);
    out.numbers_[f.node] = std::move(number);
    const Pbn* self = &out.numbers_[f.node];
    std::vector<xml::NodeId> kids = doc.Children(f.node);
    for (size_t i = kids.size(); i > 0; --i) {
      stack.push_back({kids[i - 1], static_cast<uint32_t>(i), self});
    }
  }
  return out;
}

Numbering Numbering::FromNumbers(std::vector<Pbn> numbers) {
  Numbering out;
  out.numbers_ = std::move(numbers);
  return out;
}

size_t Numbering::NumbersMemoryUsage() const {
  // The vector slots already charge one sizeof(Pbn) header per number, so
  // each element adds only its heap block (allocation overhead included).
  size_t total = numbers_.capacity() * sizeof(Pbn);
  for (const Pbn& p : numbers_) total += p.HeapMemoryUsage();
  return total;
}

}  // namespace vpbn::num
