// sim::CompiledModel — a system model lowered once for many simulations.
//
// Building a Simulation used to re-derive everything from the UML object
// graph: tag lookups for frequencies and arbitration, shortest-path routing
// per send, wrapper MaxTime scans per transfer, Router walks per signal.
// CompiledModel hoists all of it into dense index-addressed tables built
// once from a (model, mapping, platform) triple: PEs, segments and
// processes in their canonical declaration orders, a pe×pe route table of
// segment index lists, per-process send-port destination tables, and one
// shared read-only efsm::CompiledMachine per distinct behaviour.
//
// Lifetime rules: a CompiledModel borrows the mapping::SystemView (and
// through it the uml::Model), which must outlive it; Simulations and
// BatchRunner runs borrow the CompiledModel via shared_ptr, so one image
// can serve any number of concurrent scenario runs — everything here is
// immutable after build().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "efsm/program.hpp"
#include "efsm/router.hpp"
#include "mapping/mapping.hpp"

namespace tut::sim {

class CompiledModel {
 public:
  /// Where a process's send port delivers: another process (`proc >= 0`,
  /// arriving through `dest_port`) or the environment (`proc < 0`).
  struct PortDest {
    std::string port;        ///< sending port name
    std::int32_t proc = -1;  ///< destination process index; -1 = environment
    std::string dest_port;   ///< receiving port name (empty for environment)
  };

  struct PeInfo {
    const uml::Property* part = nullptr;
    std::string name;
    long freq_mhz = 50;
    bool preemptive = false;
    long ctx_switch_cycles = 0;
    bool hw_accel = false;
    long wrapper_max_cycles = 0;  ///< wrapper MaxTime; 0 = unlimited
    long rr_key = 0;              ///< instance "ID" tag (round-robin order)
  };

  struct SegInfo {
    const uml::Property* part = nullptr;
    std::string name;
    long width_bits = 32;
    long freq_mhz = 100;
    bool priority_arb = true;
    std::uint64_t rng_key = 0;  ///< FaultRng instance key (name hash)
  };

  struct ProcInfo {
    const uml::Property* part = nullptr;
    std::string name;
    const uml::StateMachine* behavior = nullptr;
    /// Bytecode image of `behavior`, shared by every process that runs it.
    const efsm::CompiledMachine* machine = nullptr;
    std::uint32_t home_pe = 0;  ///< mapped PE (failover returns here)
    bool hw = false;            ///< ProcessType "hardware"
    long priority = 0;
    std::vector<PortDest> ports;  ///< every Send-action port, resolved
  };

  /// Lowers the system. Throws std::runtime_error with the combined
  /// "model is not executable" diagnostic on defects (same messages as
  /// constructing a Simulation), and efsm::ExprError on malformed
  /// expression text.
  static std::shared_ptr<const CompiledModel> build(
      const mapping::SystemView& sys);

  const mapping::SystemView& view() const noexcept { return *sys_; }
  const efsm::Router& router() const noexcept { return *router_; }

  const std::vector<PeInfo>& pes() const noexcept { return pes_; }
  const std::vector<SegInfo>& segs() const noexcept { return segs_; }
  const std::vector<ProcInfo>& procs() const noexcept { return procs_; }

  /// Segment indices of the route between two PEs (empty = unroutable or
  /// same PE).
  const std::vector<std::uint32_t>& route(std::uint32_t from_pe,
                                          std::uint32_t to_pe) const {
    return routes_[from_pe * pes_.size() + to_pe];
  }

  /// Index lookups (-1 when absent) for fault-plan resolution and the
  /// environment boundary.
  std::int32_t pe_index(std::string_view name) const;
  std::int32_t seg_index(std::string_view name) const;
  std::int32_t proc_index(std::string_view name) const;
  std::int32_t proc_of_part(const uml::Property* part) const;

  bool has_machines() const noexcept { return !machines_.empty(); }

 private:
  friend class Simulation;
  CompiledModel() = default;

  /// Builds without throwing on model defects (they are appended to
  /// `defects` in the same order Simulation used to collect them).
  static std::shared_ptr<CompiledModel> build_collect(
      const mapping::SystemView& sys, std::vector<std::string>& defects);

  const mapping::SystemView* sys_ = nullptr;
  std::unique_ptr<efsm::Router> router_;
  std::vector<PeInfo> pes_;
  std::vector<SegInfo> segs_;
  std::vector<ProcInfo> procs_;
  std::vector<std::vector<std::uint32_t>> routes_;  ///< pe×pe
  std::vector<std::unique_ptr<efsm::CompiledMachine>> machines_;
  std::map<std::string, std::uint32_t, std::less<>> pe_by_name_;
  std::map<std::string, std::uint32_t, std::less<>> seg_by_name_;
  std::map<std::string, std::uint32_t, std::less<>> proc_by_name_;
  std::map<const uml::Property*, std::uint32_t> proc_by_part_;
};

}  // namespace tut::sim
