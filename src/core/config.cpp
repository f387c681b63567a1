#include "core/config.h"

#include <sstream>

namespace tvs {

std::string to_string(VerifyMode m) {
  switch (m) {
    case VerifyMode::EveryKth: return "every-kth";
    case VerifyMode::Optimistic: return "optimistic";
    case VerifyMode::Full: return "full";
  }
  return "?";
}

std::string SpecConfig::to_string() const {
  std::ostringstream os;
  os << "step=" << step_size << " verify=" << tvs::to_string(verify.mode);
  if (verify.mode == VerifyMode::EveryKth) os << "(" << verify.every << ")";
  os << " tol=" << tolerance * 100.0 << "%";
  if (adaptive_restart) os << " adaptive";
  return os.str();
}

}  // namespace tvs
