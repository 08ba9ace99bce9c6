#include "hw/cluster.hpp"

#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/units.hpp"

namespace llmpq {

const LinkSpec& ClusterSpec::link(int a, int b) const {
  check_arg(a >= 0 && a < num_devices() && b >= 0 && b < num_devices(),
            "ClusterSpec::link: device index out of range");
  return devices[static_cast<std::size_t>(a)].node ==
                 devices[static_cast<std::size_t>(b)].node
             ? intra_node
             : inter_node;
}

std::int64_t ClusterSpec::total_mem_bytes() const {
  std::int64_t total = 0;
  for (const auto& d : devices) total += d.gpu().mem_bytes;
  return total;
}

bool ClusterSpec::homogeneous() const {
  for (const auto& d : devices)
    if (d.gpu_name != devices.front().gpu_name) return false;
  return true;
}

std::string ClusterSpec::describe_devices() const {
  // Preserve first-seen order of GPU types.
  std::vector<std::pair<std::string, int>> counts;
  for (const auto& d : devices) {
    bool found = false;
    for (auto& [name, n] : counts)
      if (name == d.gpu_name) {
        ++n;
        found = true;
      }
    if (!found) counts.emplace_back(d.gpu_name, 1);
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i) os << " + ";
    os << counts[i].second << 'x' << counts[i].first;
  }
  return os.str();
}

ClusterSpec make_cluster(const std::string& name,
                         const std::vector<std::pair<std::string, int>>& gpus,
                         double ethernet_gbps) {
  ClusterSpec c;
  c.name = name;
  int node = 0;
  for (const auto& [gpu_name, count] : gpus) {
    check_arg(count > 0, "make_cluster: non-positive GPU count");
    gpu_registry_get(gpu_name);  // validate name
    for (int i = 0; i < count; ++i)
      c.devices.push_back({gpu_name, node, nullptr});
    ++node;
  }
  check_arg(!c.devices.empty(), "make_cluster: empty cluster");
  // NVLink (NV-LINK in the paper's setup): ~300 GB/s effective, 5 us.
  c.intra_node = {gBps(300), us(5)};
  c.inter_node = {gbps(ethernet_gbps), us(30)};
  return c;
}

PaperCluster paper_cluster(int index) {
  // Table 3 of the paper. Nodes in clusters 3, 5, 8, 11 use 800 Gbps
  // Ethernet; 4, 6, 7 use 100 Gbps; single-node clusters have no
  // inter-node traffic (rate value is irrelevant but set to 800).
  switch (index) {
    case 1:
      return {make_cluster("cluster-1", {{"V100-32G", 1}}), "opt-13b"};
    case 2:
      return {make_cluster("cluster-2", {{"A100-40G", 1}}), "opt-13b"};
    case 3:
      return {make_cluster("cluster-3", {{"T4-16G", 3}, {"V100-32G", 1}}, 800),
              "opt-30b"};
    case 4:
      return {make_cluster("cluster-4", {{"P100-12G", 3}, {"V100-32G", 1}}, 100),
              "opt-30b"};
    case 5:
      return {make_cluster("cluster-5", {{"T4-16G", 4}, {"V100-32G", 2}}, 800),
              "opt-66b"};
    case 6:
      return {make_cluster("cluster-6", {{"V100-32G", 2}, {"A100-40G", 2}}, 100),
              "opt-66b"};
    case 7:
      return {make_cluster("cluster-7", {{"V100-32G", 4}, {"A100-40G", 4}}, 100),
              "bloom-176b"};
    case 8:
      return {make_cluster("cluster-8", {{"V100-32G", 4}, {"A800-80G", 2}}, 800),
              "bloom-176b"};
    case 9:
      return {make_cluster("cluster-9", {{"T4-16G", 4}}), "opt-30b"};
    case 10:
      return {make_cluster("cluster-10", {{"V100-32G", 4}}), "opt-66b"};
    case 11:
      return {make_cluster("cluster-11", {{"A800-80G", 4}}, 800), "bloom-176b"};
    default:
      throw InvalidArgumentError("paper_cluster: index must be in [1, 11]");
  }
}

}  // namespace llmpq
