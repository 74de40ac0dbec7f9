/// \file result_codec.hpp
/// \brief Binary serialization of `t1::EngineResult` — the disk tier's
/// record payload format.
///
/// The encoding is platform-stable by the same rules as the cache keys:
/// explicit little-endian fixed-width integers, no padding, no pointers,
/// no `std::hash`.  A payload written on one machine decodes bit-identical
/// on any other, which is what lets a `--cache-dir` be rsync'd between
/// hosts or survive a toolchain upgrade.
///
/// Netlists are encoded as their construction replay (node stream in id
/// order, then PI names, then POs) and rebuilt through the public
/// `sfq::Netlist` API, so every structural invariant is re-validated on
/// decode — a corrupt payload fails as `ContractError`, never as a
/// malformed in-memory object.  Stage times and reuse counters are
/// deliberately *not* persisted: a cache hit runs no pass, so
/// `decode_result` returns them zeroed (see tiered_cache.hpp).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "t1/flow_engine.hpp"

namespace t1map::serve {

/// Bumped whenever the payload layout changes; part of the record header,
/// so mixed-version cache directories fail loudly at open, not at decode.
constexpr std::uint32_t kResultCodecVersion = 1;

/// Serializes `result` (stage times and reuse counters excluded) into a
/// byte string.
std::string encode_result(const t1::EngineResult& result);

/// Rebuilds a result from `encode_result` bytes.  Throws `ContractError`
/// on any truncation, trailing garbage, or structural violation.
t1::EngineResult decode_result(std::string_view bytes);

/// Platform-stable 64-bit FNV-1a + finalizer over a payload — the record
/// checksum of the disk tier.
std::uint64_t payload_checksum(std::string_view bytes);

}  // namespace t1map::serve
