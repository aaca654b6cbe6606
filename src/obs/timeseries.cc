#include "obs/timeseries.h"

#include <cassert>
#include <utility>

namespace mmdb {

TimeSeriesSampler::TimeSeriesSampler(const Options& options)
    : options_(options) {
  assert(options_.epoch > 0.0);
  assert(options_.capacity > 0);
}

void TimeSeriesSampler::AddCounter(std::string name, const Counter* counter) {
  Source source;
  source.name = std::move(name);
  source.counter = counter;
  sources_.push_back(std::move(source));
}

void TimeSeriesSampler::AddGauge(std::string name, std::function<double()> fn) {
  Source source;
  source.name = std::move(name);
  source.fn = std::move(fn);
  sources_.push_back(std::move(source));
}

void TimeSeriesSampler::Record(double t) {
  Sample sample;
  sample.t = t;
  sample.values.reserve(sources_.size());
  for (const Source& source : sources_) {
    sample.values.push_back(source.counter != nullptr
                                ? static_cast<double>(source.counter->value())
                                : source.fn());
  }
  ++recorded_;
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(sample));
  } else {
    // Overwrite the oldest; head_ walks forward so export stays ordered.
    ring_[head_] = std::move(sample);
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }
}

void TimeSeriesSampler::SampleUpTo(double now) {
  // Multiplying instead of accumulating the epoch keeps boundaries exact
  // over long runs (no floating-point drift in the sample grid).
  double next = options_.epoch * static_cast<double>(next_epoch_index_);
  while (now >= next) {
    Record(next);
    ++next_epoch_index_;
    next = options_.epoch * static_cast<double>(next_epoch_index_);
  }
}

void TimeSeriesSampler::ToJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("epoch");
  writer->Double(options_.epoch);
  writer->Key("capacity");
  writer->Uint(options_.capacity);
  writer->Key("series");
  writer->BeginArray();
  for (const Source& source : sources_) writer->String(source.name);
  writer->EndArray();
  writer->Key("samples");
  writer->BeginArray();
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Sample& sample = ring_[(head_ + i) % ring_.size()];
    writer->BeginObject();
    writer->Key("t");
    writer->Double(sample.t);
    writer->Key("v");
    writer->BeginArray();
    for (double v : sample.values) writer->Double(v);
    writer->EndArray();
    writer->EndObject();
  }
  writer->EndArray();
  writer->Key("recorded");
  writer->Uint(recorded_);
  writer->Key("dropped");
  writer->Uint(dropped_);
  writer->EndObject();
}

}  // namespace mmdb
