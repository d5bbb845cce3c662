#include "core/load_store_swap.hpp"

#include "core/law_checks.hpp"  // static_asserts the §5.1 tables at build time

namespace krs::core {

const char* to_cstring(LssKind k) noexcept {
  switch (k) {
    case LssKind::kLoad:
      return "load";
    case LssKind::kStore:
      return "store";
    case LssKind::kSwap:
      return "swap";
  }
  return "?";
}

std::string LssOp::to_string() const {
  std::string s = to_cstring(kind_);
  if (is_constant()) {
    s += '(';
    s += std::to_string(value_);
    s += ')';
  }
  return s;
}

}  // namespace krs::core
