// Reads the request lanes back out of a chrome://tracing export: for each
// trace id, how many "request" umbrella slices were opened ("b") and
// closed ("e"). A lane is well-formed when both counts are exactly 1.
#pragma once

#include <map>
#include <string>

namespace phishinghook {

struct LaneCount {
  int begins = 0;
  int ends = 0;
};

inline std::map<std::string, LaneCount> request_lanes(
    const std::string& chrome_trace) {
  static const std::string kPrefix =
      "{\"name\":\"request\",\"cat\":\"phook.req\",\"ph\":\"";
  std::map<std::string, LaneCount> lanes;
  for (std::size_t at = chrome_trace.find(kPrefix); at != std::string::npos;
       at = chrome_trace.find(kPrefix, at + 1)) {
    const char phase = chrome_trace[at + kPrefix.size()];
    const std::size_t id_begin = chrome_trace.find("\"id\":\"", at) + 6;
    const std::string id = chrome_trace.substr(
        id_begin, chrome_trace.find('"', id_begin) - id_begin);
    LaneCount& lane = lanes[id];
    (phase == 'b' ? lane.begins : lane.ends) += 1;
  }
  return lanes;
}

}  // namespace phishinghook
