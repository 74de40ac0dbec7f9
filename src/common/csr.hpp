/// \file csr.hpp
/// \brief Flat CSR (compressed sparse row) adjacency, the shared fanout /
/// consumer-list substrate of the t1 and retime layers.
///
/// The classic alternative — `std::vector<std::vector<uint32_t>>`, one heap
/// vector per node — costs one allocation per node plus scattered reads;
/// profile-wise it dominated `detect_t1` and `build_consumers` on large
/// netlists.  `Csr` stores all adjacency entries of a graph in two flat
/// arrays (offsets + payload) built by the standard two-pass counting
/// scheme, and keeps its capacity across `build()` calls so a reused
/// instance (e.g. inside a `FlowScratch`) stops allocating after the first
/// netlist of a batch.
///
/// Usage:
/// \code
///   Csr<std::uint32_t> fanouts;
///   fanouts.build(num_nodes,
///                 [&](auto&& edge) {            // called twice
///                   for (v : nodes)
///                     for (u : fanins(v)) edge(u, v);
///                 });
///   for (std::uint32_t w : fanouts[u]) ...;
/// \endcode

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace t1map {

template <class Payload>
class Csr {
 public:
  /// (Re)builds the adjacency for `num_rows` rows.  `emit` is invoked twice
  /// with an `edge(row, payload)` sink: once to count entries per row, once
  /// to place them.  Both invocations must produce the same edge sequence;
  /// entries of one row keep their emission order.
  template <class EmitFn>
  void build(std::size_t num_rows, EmitFn&& emit) {
    offsets_.assign(num_rows + 1, 0);
    emit([this](std::uint32_t row, const Payload&) { ++offsets_[row + 1]; });
    for (std::size_t r = 1; r <= num_rows; ++r) offsets_[r] += offsets_[r - 1];
    data_.resize(offsets_[num_rows]);
    cursor_.assign(offsets_.begin(), offsets_.end() - 1);
    emit([this](std::uint32_t row, const Payload& p) {
      data_[cursor_[row]++] = p;
    });
  }

  std::span<const Payload> operator[](std::size_t row) const {
    return {data_.data() + offsets_[row], offsets_[row + 1] - offsets_[row]};
  }
  std::size_t num_rows() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

 private:
  std::vector<std::uint32_t> offsets_;  // num_rows + 1 prefix sums
  std::vector<std::uint32_t> cursor_;   // second-pass write positions
  std::vector<Payload> data_;
};

}  // namespace t1map
