#include "trace.h"

#include <fstream>
#include <stdexcept>

namespace xbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.id = static_cast<std::uint32_t>(tracer_->spans_.size() + 1);
  span.parent = tracer_->open_.empty()
                    ? 0
                    : tracer_->spans_[tracer_->open_.back()].id;
  span.name = name;
  span.request = request;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].startNs = nowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].endNs = nowNs();
  tracer_->open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(seconds(span.startNs, span.endNs));
  }
  return out;
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::vector<double> childSeconds(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    childSeconds[span.parent] += seconds(span.startNs, span.endNs);
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += seconds(span.startNs, span.endNs) - childSeconds[span.id];
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"start_ns\":" << span.startNs
        << ",\"end_ns\":" << span.endNs << ",\"window\":" << span.request
        << "}\n";
  }
}

}  // namespace xbench
