#include "core/full_empty.hpp"

#include "core/law_checks.hpp"  // static_asserts the §5.5 closure at build time

namespace krs::core {

const char* to_cstring(FEKind k) noexcept {
  switch (k) {
    case FEKind::kLoad:
      return "load";
    case FEKind::kLoadClear:
      return "load-and-clear";
    case FEKind::kStoreSet:
      return "store-and-set";
    case FEKind::kStoreIfClearSet:
      return "store-if-clear-and-set";
    case FEKind::kStoreClear:
      return "store-and-clear";
    case FEKind::kStoreIfClearClear:
      return "store-if-clear-and-clear";
  }
  return "?";
}

std::string FEOp::to_string() const {
  std::string s = to_cstring(kind_);
  if (carries_value()) {
    s += '(';
    s += std::to_string(value_);
    s += ')';
  }
  return s;
}

}  // namespace krs::core
