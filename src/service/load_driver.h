// Synthetic load generation: replays a whole Dataset against a Gateway
// as the interleaved multi-user stream a deployed service would see.
//
// Events from every trace are merged into one globally time-ordered
// stream (stable, so each user's own order survives ties) and submitted
// in sequence. A rate multiplier maps stream time to wall time:
// 1.0 replays in real time, 60.0 replays an hour per minute, 0 (the
// default) submits as fast as the gateway accepts — the throughput-bench
// mode.
#pragma once

#include <cstddef>

#include "service/gateway.h"
#include "trace/dataset.h"

namespace locpriv::service {

struct LoadDriverConfig {
  /// Stream-seconds replayed per wall-second; 0 = flat out.
  double rate_multiplier = 0.0;
};

struct LoadResult {
  std::size_t submitted = 0;  ///< reports handed to submit()
  std::size_t accepted = 0;   ///< reports the queue took
  /// Submit plus full processing: the gateway is drained before the
  /// clock stops.
  double wall_seconds = 0.0;
  /// Submitted reports per wall second (each one was answered —
  /// delivered, suppressed or rejected — by the time this is computed).
  double events_per_sec = 0.0;
};

/// Replays `data` through `gateway`, then drains it. The merged stream
/// is deterministic in the dataset alone; with one worker the gateway
/// output is too.
LoadResult replay_dataset(const trace::Dataset& data, Gateway& gateway,
                          const LoadDriverConfig& cfg = {});

}  // namespace locpriv::service
