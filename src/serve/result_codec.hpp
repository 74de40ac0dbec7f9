/// \file result_codec.hpp
/// \brief Binary serialization of what a serve response reads from a flow
/// result — the record payload of both serve cache tiers.
///
/// The payload is the status byte, the CEC verdict and the nine
/// `FlowStats` fields (Table I's area, DFF count and depth, plus the
/// counts behind them): 68 bytes for a run without CEC, 71 for a proved
/// one.  Netlists, diagnostics, stage times and reuse counters are not
/// part of it, so `decode_result` leaves those fields at their defaults:
/// a cache hit runs no pass and serves no netlist (see tiered_cache.hpp).
///
/// The encoding is platform-stable by the same rules as the cache keys:
/// explicit little-endian fixed-width integers, no padding, no pointers,
/// no `std::hash`.  A payload written on one machine decodes bit-identical
/// on any other, which is what lets a `--cache-dir` be rsync'd between
/// hosts or survive a toolchain upgrade.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "t1/flow_engine.hpp"

namespace t1map::serve {

/// Bumped whenever the payload layout changes; part of the record header,
/// so mixed-version cache directories fail loudly at open, not at decode.
/// `ResultCodec.PayloadLayoutIsPinned` pins the layout.
constexpr std::uint32_t kResultCodecVersion = 2;

/// Serializes the status, CEC verdict and statistics of `result` into a
/// byte string.
std::string encode_result(const t1::EngineResult& result);

/// Rebuilds a result from `encode_result` bytes: status, `cec` and
/// `stats` filled, every other field at its default.  Throws
/// `ContractError` on a bad status, truncation or trailing garbage.
t1::EngineResult decode_result(std::string_view bytes);

/// Platform-stable 64-bit FNV-1a + finalizer over a payload — the record
/// checksum of the disk tier.
std::uint64_t payload_checksum(std::string_view bytes);

}  // namespace t1map::serve
