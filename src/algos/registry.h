// The one name -> factory table for the algorithms that need nothing
// from their world beyond a LatencySpace. np_run and the bench mains
// construct algorithms through it, so a config tweak under one name
// cannot diverge between drivers, and their accepted-name lists come
// from its rows. The §5 hybrids (hybrid-*) need a router topology and
// stay in np_run.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "algos/beaconing.h"
#include "algos/coord_nearest.h"
#include "algos/karger_ruhl.h"
#include "algos/tapestry.h"
#include "algos/tiers.h"
#include "core/nearest_algorithm.h"
#include "meridian/meridian.h"
#include "util/error.h"

namespace np::algos {

using AlgorithmPtr = std::unique_ptr<core::NearestPeerAlgorithm>;

/// `Algo` built from a default `Config` (or from nothing).
template <typename Algo, typename... Config>
AlgorithmPtr MakeDefault() { return std::make_unique<Algo>(Config{}...); }

template <CoordScheme kScheme>
AlgorithmPtr MakeCoord() {
  return std::make_unique<CoordNearest>(CoordConfig{.scheme = kScheme});
}

/// Incremental repair disabled: the engine rebuilds per epoch and
/// bills it — the pre-repair cost model, kept for head-to-heads.
inline AlgorithmPtr MakeRebuildingTiers() {
  return std::make_unique<TiersNearest>(TiersConfig{.incremental = false});
}

struct RegisteredAlgorithm {
  const char* name;
  AlgorithmPtr (*make)();
};

inline constexpr RegisteredAlgorithm kAlgorithms[] = {
    {"oracle", &MakeDefault<core::OracleNearest>},
    {"random", &MakeDefault<core::RandomNearest>},
    {"meridian",
     &MakeDefault<meridian::MeridianOverlay, meridian::MeridianConfig>},
    {"karger-ruhl", &MakeDefault<KargerRuhlNearest>},
    {"tiers", &MakeDefault<TiersNearest, TiersConfig>},
    {"tiers-rebuild", &MakeRebuildingTiers},
    {"beaconing", &MakeDefault<BeaconingNearest, BeaconingConfig>},
    {"tapestry", &MakeDefault<TapestryNearest>},
    {"coord-vivaldi", &MakeCoord<CoordScheme::kVivaldi>},
    {"coord-pic", &MakeCoord<CoordScheme::kPic>},
    {"coord-landmark", &MakeCoord<CoordScheme::kLandmark>},
};

/// The row named `name`, or nullptr.
inline const RegisteredAlgorithm* FindAlgorithm(std::string_view name) {
  for (const RegisteredAlgorithm& entry : kAlgorithms) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

/// "oracle | random | ..." — every row's name, in table order.
inline std::string AlgorithmNames() {
  std::string names;
  for (const RegisteredAlgorithm& entry : kAlgorithms) {
    names += names.empty() ? "" : " | ";
    names += entry.name;
  }
  return names;
}

/// The algorithm named `name`; an unknown name throws util::Error
/// listing every accepted one.
inline AlgorithmPtr MakeAlgorithm(std::string_view name) {
  const RegisteredAlgorithm* entry = FindAlgorithm(name);
  if (entry == nullptr) {
    throw util::Error("unknown algorithm: " + std::string(name) +
                      " (expected " + AlgorithmNames() + ")");
  }
  return entry->make();
}

}  // namespace np::algos
