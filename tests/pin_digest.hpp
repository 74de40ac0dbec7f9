/// \file pin_digest.hpp
/// \brief The digest the pin tests (`Retime.OutputsArePinned`,
/// `CutEnum.CutSetsArePinned`, `Detect.ResultIsPinned`) fold their outputs
/// into: FNV-1a over the bytes of 64-bit words, so the pinned values are
/// the same on every platform.

#pragma once

#include <cstdint>

namespace t1map {

struct PinDigest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::int64_t x) {
    const auto u = static_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

}  // namespace t1map
