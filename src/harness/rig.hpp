// Shared test/bench rig: an engine populated with ComponentHosts, one
// oracle <>P module per host, and helpers to wire dining instances,
// clients and monitors. Used by the dining, reduction and application
// suites; kept header-only for convenience.
#pragma once

#include <memory>
#include <vector>

#include "detect/oracle.hpp"
#include "dining/client.hpp"
#include "dining/instance.hpp"
#include "dining/monitors.hpp"
#include "sim/component.hpp"
#include "sim/engine.hpp"

namespace wfd::harness {

struct RigOptions {
  std::uint64_t seed = 1;
  std::uint32_t n = 2;
  sim::Time detector_lag = 20;                      ///< crash-detection lag
  std::vector<detect::MistakeWindow> mistakes = {}; ///< <>P mistake prefix
  std::size_t trace_capacity = 0;
  sim::Time delay_min = 1;
  sim::Time delay_max = 8;
};

/// Engine + hosts + per-host <>P oracle modules.
class Rig {
 public:
  explicit Rig(const RigOptions& options)
      : engine(sim::EngineConfig{.seed = options.seed,
                                 .trace_capacity = options.trace_capacity}) {
    for (sim::ProcessId p = 0; p < options.n; ++p) {
      auto host = std::make_unique<sim::ComponentHost>();
      hosts.push_back(host.get());
      engine.add_process(std::move(host));
    }
    for (sim::ProcessId p = 0; p < options.n; ++p) {
      auto oracle = std::make_shared<detect::OracleEventuallyPerfect>(
          engine, p, options.n, options.detector_lag, options.mistakes,
          /*tag=*/0xFD);
      detectors.push_back(oracle);
      hosts[p]->add_component(oracle, {});
    }
    engine.set_delay_model(std::make_unique<sim::UniformDelay>(
        options.delay_min, options.delay_max));
  }

  /// Wait-free dining instance over all hosts using the per-host oracles.
  dining::BuiltInstance add_wait_free_dining(sim::Port port, std::uint64_t tag,
                                             graph::ConflictGraph graph) {
    dining::DiningInstanceConfig config;
    config.port = port;
    config.tag = tag;
    for (sim::ProcessId p = 0; p < hosts.size(); ++p) config.members.push_back(p);
    config.graph = std::move(graph);
    std::vector<const detect::FailureDetector*> fds;
    for (const auto& d : detectors) fds.push_back(d.get());
    return dining::build_dining_instance(hosts, config, fds);
  }

  /// Fault-intolerant hygienic instance (no detectors).
  dining::BuiltInstance add_hygienic_dining(sim::Port port, std::uint64_t tag,
                                            graph::ConflictGraph graph) {
    dining::DiningInstanceConfig config;
    config.port = port;
    config.tag = tag;
    for (sim::ProcessId p = 0; p < hosts.size(); ++p) config.members.push_back(p);
    config.graph = std::move(graph);
    std::vector<const detect::FailureDetector*> fds(hosts.size(), nullptr);
    return dining::build_dining_instance(hosts, config, fds);
  }

  /// Attach a standard workload client to every diner of `instance`.
  std::vector<std::shared_ptr<dining::DinerClient>> add_clients(
      dining::BuiltInstance& instance, const dining::ClientConfig& config) {
    std::vector<std::shared_ptr<dining::DinerClient>> clients;
    for (std::uint32_t i = 0; i < instance.diners.size(); ++i) {
      auto client =
          std::make_shared<dining::DinerClient>(*instance.diners[i], config);
      hosts[i]->add_component(client, {});
      clients.push_back(std::move(client));
    }
    return clients;
  }

  sim::Engine engine;
  std::vector<sim::ComponentHost*> hosts;
  std::vector<std::shared_ptr<detect::OracleEventuallyPerfect>> detectors;
};

}  // namespace wfd::harness
