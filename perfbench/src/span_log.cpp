#include <fstream>

#include "common/json_writer.hpp"
#include "perfbench.hpp"

namespace perfbench {

void SpanLog::add(std::string name, double ts_us, double dur_us, Args args) {
  spans_.push_back(Span{std::move(name), ts_us, dur_us, std::move(args)});
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  llmpq::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.name.substr(0, s.name.find('.')));
    w.kv("ph", "X");
    w.kv("ts", s.ts_us);
    w.kv("dur", s.dur_us);
    w.kv("pid", 0);
    w.kv("tid", 0);
    if (!s.args.empty()) {
      w.key("args");
      w.begin_object();
      for (const auto& [k, v] : s.args) w.kv(k, v);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
