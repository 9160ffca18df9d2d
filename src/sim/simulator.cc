#include "sim/simulator.h"

#include <cmath>

#include "obs/binary_trace.h"

#include "util/logging.h"

namespace dynvote {

EventId Simulator::ScheduleIn(SimTime delay, EventQueue::Callback callback) {
  DYNVOTE_CHECK_MSG(delay >= 0.0 && std::isfinite(delay),
                    "event delay must be finite and non-negative");
  return queue_.Schedule(now_ + delay, std::move(callback));
}

EventId Simulator::ScheduleAt(SimTime when, EventQueue::Callback callback) {
  DYNVOTE_CHECK_MSG(when >= now_ && std::isfinite(when),
                    "event time must be finite and not in the past");
  return queue_.Schedule(when, std::move(callback));
}

Status Simulator::RunUntil(SimTime horizon) {
  if (!(horizon >= now_) || !std::isfinite(horizon)) {
    return Status::InvalidArgument("horizon must be finite and >= Now()");
  }
  while (!queue_.Empty()) {
    const SimTime when = queue_.PeekTime();
    if (when > horizon) break;
    now_ = when;
    if (obs_ != nullptr) EmitDispatch();
    queue_.RunNext();
    ++events_run_;
  }
  now_ = horizon;
  return Status::OK();
}

bool Simulator::Step() {
  if (queue_.Empty()) return false;
  now_ = queue_.PeekTime();
  if (obs_ != nullptr) EmitDispatch();
  queue_.RunNext();
  ++events_run_;
  return true;
}

void Simulator::EmitDispatch() {
  obs_->now = now_;
  obs_->seq = events_run_;
  if (obs_->sink != nullptr) {
    TraceSink* sink = obs_->sink;
    // Devirtualized fast path, as in the protocol emitters.
    if (dispatch_label_.BinaryHit(sink)) {
      static_cast<BinaryTraceSink*>(sink)->EncodeSim(
          now_, events_run_, obs_->replication, dispatch_label_.id);
    } else {
      sink->WriteSim(now_, events_run_, obs_->replication, "dispatch",
                     dispatch_label_.Resolve(sink, "dispatch"));
    }
  }
  if (obs_->metrics != nullptr) {
    MetricsShard* shard = obs_->metrics;
    if (shard != cell_shard_ || cell_epoch_ != shard->cell_epoch()) {
      cell_shard_ = shard;
      cell_epoch_ = shard->cell_epoch();
      sim_events_cell_ = shard->CounterCell("sim_events");
    }
    ++*sim_events_cell_;
  }
}

}  // namespace dynvote
