/// \file t1map.hpp
/// \brief Umbrella header: the whole curated public surface of t1map.
///
/// Embedders include <t1map/t1map.hpp> (or the individual headers below)
/// and link `t1map::all`.  Everything else under src/ is internal and may
/// change without notice.

#pragma once

#include <t1map/aig.hpp>
#include <t1map/cec.hpp>
#include <t1map/flow_engine.hpp>
#include <t1map/generators.hpp>
#include <t1map/io.hpp>
#include <t1map/netlist.hpp>
#include <t1map/serve.hpp>
