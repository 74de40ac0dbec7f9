/// \file golden_flow.hpp
/// \brief The seed-captured Table-I golden statistics, shared by
/// `test_flow_regression` (a fresh `FlowEngine` per row: cold runs on fresh
/// scratch) and `test_flow_engine` (one engine across all rows, reusing its
/// scratch) — both must reproduce these numbers bit-for-bit.

#pragma once

#include <string>
#include <vector>

namespace t1map {

struct Golden {
  std::string gen;
  int phases;
  bool use_t1;
  long jj_total;
  long dffs;
  int depth_cycles;
  int num_stages;
  long logic_cells;
  long splitters;
  int t1_found;
  int t1_used;
};

// Captured from the seed implementation (PR 1) with
//   t1map --gen <name> --config all --no-cec --verify-rounds 0 --json
inline const std::vector<Golden>& golden_rows() {
  static const std::vector<Golden> rows = {
      // gen           phi t1     jj   dffs dep stg logic split fnd used
      {"adder16",      1, false,  4463,  454, 18, 18,   75,  47,   0,   0},
      {"adder16",      4, false,  1831,   78,  5, 18,   75,  47,   0,   0},
      {"adder16",      4, true,   1058,   85,  5, 18,    2,   2,  15,  15},
      {"adder64",      1, false, 60959, 7942, 66, 66,  315, 191,   0,   0},
      {"adder64",      4, false, 18175, 1830, 17, 66,  315, 191,   0,   0},
      {"adder64",      4, true,  12278, 1489, 17, 66,    2,   2,  63,  63},
      {"mul8",         1, false,  8091,  358, 17, 17,  236, 292,   0,   0},
      {"mul8",         4, false,  5844,   37,  5, 17,  236, 292,   0,   0},
      {"mul8",         4, true,   4477,   60,  6, 21,  156, 192,  45,  33},
      {"square12",     1, false, 16148, 1372, 36, 36,  290, 324,   0,   0},
      {"square12",     4, false,  8413,  267,  9, 36,  290, 324,   0,   0},
      {"square12",     4, true,   7883,  463, 13, 50,  182, 204,  71,  41},
      {"voter25",      1, false,  2040,   26, 12, 12,   66,  65,   0,   0},
      {"voter25",      4, false,  1858,    0,  3, 12,   66,  65,   0,   0},
      {"voter25",      4, true,   1235,   15,  5, 17,   29,  25,  22,  13},
      {"comparator16", 1, false,  6256,  507, 19, 19,  124, 111,   0,   0},
      {"comparator16", 4, false,  3330,   89,  5, 19,  124, 111,   0,   0},
      {"comparator16", 4, true,   2851,  139,  5, 18,   49,  66,  17,  16},
      {"sin12",        1, false, 64420, 4854, 141, 141, 1471, 1481, 0,  0},
      {"sin12",        4, false, 36490,  864,  36, 141, 1471, 1481, 0,  0},
      {"sin12",        4, true,  33841, 1601,  50, 198,  838,  916, 298, 194},
  };
  return rows;
}

}  // namespace t1map
