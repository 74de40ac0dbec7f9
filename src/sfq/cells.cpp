#include "sfq/cells.hpp"

#include "common/require.hpp"

namespace t1map::sfq {

Tt cell_tt(CellKind kind) {
  switch (kind) {
    case CellKind::kBuf:
      return Tt::var(1, 0);
    case CellKind::kNot:
      return ~Tt::var(1, 0);
    case CellKind::kAnd2:
      return tts::and2();
    case CellKind::kOr2:
      return tts::or2();
    case CellKind::kXor2:
      return tts::xor2();
    case CellKind::kAnd3:
      return tts::and3();
    case CellKind::kOr3:
      return tts::or3();
    case CellKind::kXor3:
      return tts::xor3();
    case CellKind::kMaj3:
      return tts::maj3();
    case CellKind::kDff:
      return Tt::var(1, 0);
    case CellKind::kT1TapS:
      return tts::xor3();
    case CellKind::kT1TapC:
      return tts::maj3();
    case CellKind::kT1TapQ:
      return tts::or3();
    case CellKind::kT1TapCn:
      return ~tts::maj3();
    case CellKind::kT1TapQn:
      return ~tts::or3();
    default:
      T1MAP_REQUIRE(false, "cell kind has no logic function");
  }
  return Tt(0);
}

}  // namespace t1map::sfq
