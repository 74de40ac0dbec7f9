/// \file flow_engine.hpp
/// \brief Public surface: the Table-I flow.
///
/// `t1map::t1::FlowEngine` maps AIGs through the paper's fixed flow, one at
/// a time (`run`) or as a batch of `FlowJob`s on its persistent workers
/// (`run_many`), and returns an `EngineResult`: netlists, Table-I
/// statistics and structured `Diagnostics`.  `FlowParams` selects phases /
/// T1 / random-simulation rounds; `Pipeline` adds SAT CEC.

#pragma once

#include "t1/flow_engine.hpp"
