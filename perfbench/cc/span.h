#pragma once

// In-memory span recorder for the traced benchmark run.
//
// Every span is named by a layer (the src/ module it times). Spans nest:
// a span opened while another is open is its child, and a layer's self
// time is its span's duration minus the part of it that child spans cover.
// Per-packet spans are only aggregated (count, total, self); spans of
// layers registered with `keep` are also kept whole as (name, start, end,
// parent) records and written out when the benchmark ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Layer {
    std::string name;
    bool keep = false;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Record {
    int layer = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing kept record, -1 = none
  };

  /// Registers (or finds) a layer and returns its id.
  int layer(const std::string& name, bool keep = false) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (layers_[i].name == name) return static_cast<int>(i);
    }
    layers_.push_back(Layer{name, keep, 0, 0, 0});
    return static_cast<int>(layers_.size() - 1);
  }

  void begin(int layer, std::int64_t t) {
    int record = -1;
    if (layers_[static_cast<std::size_t>(layer)].keep) {
      record = static_cast<int>(records_.size());
      records_.push_back(Record{layer, t, t, open_record()});
    }
    stack_.push_back(Frame{layer, t, 0, record});
  }

  void end(std::int64_t t) {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = t - frame.start_ns;
    Layer& layer = layers_[static_cast<std::size_t>(frame.layer)];
    ++layer.count;
    layer.total_ns += duration;
    layer.self_ns += duration - frame.child_ns;
    if (stack_.empty()) {
      top_level_ns_ += duration;
    } else {
      stack_.back().child_ns += duration;
    }
    if (frame.record >= 0) {
      records_[static_cast<std::size_t>(frame.record)].end_ns = t;
    }
  }

  void begin(int layer) { begin(layer, now_ns()); }
  void end() { end(now_ns()); }

  /// The layer's aggregate; a layer that never ran reads all zeros.
  Layer stats(const std::string& name) const {
    for (const Layer& layer : layers_) {
      if (layer.name == name) return layer;
    }
    return Layer{name, false, 0, 0, 0};
  }

  const std::vector<Layer>& layers() const { return layers_; }
  const std::vector<Record>& records() const { return records_; }
  std::int64_t top_level_ns() const { return top_level_ns_; }
  bool idle() const { return stack_.empty(); }

 private:
  struct Frame {
    int layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    int record;
  };

  int open_record() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->record >= 0) return it->record;
    }
    return -1;
  }

  std::vector<Layer> layers_;
  std::vector<Record> records_;
  std::vector<Frame> stack_;
  std::int64_t top_level_ns_ = 0;
};

/// RAII span on an optional recorder: a null recorder records nothing, so
/// the untraced run pays one branch per site.
class Span {
 public:
  Span(SpanRecorder* recorder, int layer) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(layer);
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace perfbench
