#include "sim/compiled.hpp"

#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "profile/tut_profile.hpp"
#include "sim/backend.hpp"
#include "sim/fault.hpp"

namespace tut::sim {

namespace {

/// Send-action port names of a behaviour, unique, in first-use order
/// (transition effects in declaration order, then entry actions).
std::vector<std::string> send_ports(const uml::StateMachine& sm) {
  std::vector<std::string> ports;
  std::set<std::string> seen;
  auto add = [&](const std::vector<uml::Action>& actions) {
    for (const uml::Action& a : actions) {
      if (a.kind == uml::Action::Kind::Send && seen.insert(a.port).second) {
        ports.push_back(a.port);
      }
    }
  };
  for (const uml::Transition* t : sm.transitions()) add(t->effects());
  for (const uml::State* s : sm.states()) add(s->entry_actions());
  return ports;
}

long wrapper_max_time(const mapping::SystemView& sys,
                      const uml::Property& instance) {
  for (const uml::Connector* w : sys.plat().wrappers_of(instance)) {
    const long mt = appmodel::tag_long(*w, "MaxTime", 0);
    if (mt > 0) return mt;
  }
  return 0;
}

}  // namespace

std::shared_ptr<const CompiledModel> CompiledModel::build(
    const mapping::SystemView& sys) {
  std::vector<std::string> defects;
  std::shared_ptr<CompiledModel> model = build_collect(sys, defects);
  if (!defects.empty()) {
    std::string msg = "model is not executable (" +
                      std::to_string(defects.size()) + " defect" +
                      (defects.size() == 1 ? "" : "s") + "):";
    for (const std::string& d : defects) msg += "\n  - " + d;
    throw std::runtime_error(msg);
  }
  return model;
}

std::shared_ptr<CompiledModel> CompiledModel::build_collect(
    const mapping::SystemView& sys, std::vector<std::string>& defects) {
  const uml::Class* app = sys.app().application();
  if (app == nullptr) {
    throw std::runtime_error("simulation requires an <<Application>> class");
  }

  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  model->sys_ = &sys;
  model->router_ = std::make_unique<efsm::Router>(*app);

  for (const uml::Property* part : sys.plat().instances()) {
    PeInfo pe;
    pe.part = part;
    pe.name = part->name();
    pe.freq_mhz = sys.instance_frequency_mhz(*part);
    if (const uml::Class* comp = part->part_type()) {
      pe.preemptive = comp->tagged_value("Scheduling") ==
                      profile::tags::SchedulingPreemptive;
      pe.ctx_switch_cycles = appmodel::tag_long(*comp, "ContextSwitchCycles", 0);
      pe.hw_accel = comp->tagged_value("Type") == "hw_accelerator";
    }
    pe.wrapper_max_cycles = wrapper_max_time(sys, *part);
    pe.rr_key = appmodel::tag_long(*part, "ID", 0);
    model->pe_by_name_.emplace(pe.name,
                               static_cast<std::uint32_t>(model->pes_.size()));
    model->pes_.push_back(std::move(pe));
  }

  std::map<const uml::Property*, std::uint32_t> pe_of_part;
  for (std::uint32_t i = 0; i < model->pes_.size(); ++i) {
    pe_of_part.emplace(model->pes_[i].part, i);
  }

  std::map<const uml::Property*, std::uint32_t> seg_of_part;
  for (const uml::Property* part : sys.plat().segments()) {
    SegInfo seg;
    seg.part = part;
    seg.name = part->name();
    seg.width_bits = appmodel::tag_long(*part, "DataWidth", 32);
    seg.freq_mhz = appmodel::tag_long(*part, "Frequency", 100);
    seg.priority_arb = part->tagged_value("Arbitration") !=
                       profile::tags::ArbitrationRoundRobin;
    seg.rng_key = FaultRng::key(part->name());
    const auto index = static_cast<std::uint32_t>(model->segs_.size());
    model->seg_by_name_.emplace(seg.name, index);
    seg_of_part.emplace(part, index);
    model->segs_.push_back(std::move(seg));
  }

  std::map<const uml::StateMachine*, const efsm::CompiledMachine*> machine_of;
  for (const uml::Property* part : sys.app().processes()) {
    const uml::Class* comp = part->part_type();
    if (comp == nullptr || comp->behavior() == nullptr) {
      defects.push_back("process '" + part->name() +
                        "' has no executable behaviour");
      continue;
    }
    const uml::Property* target = sys.instance_for_process(*part);
    if (target == nullptr) {
      defects.push_back("process '" + part->name() +
                        "' is not mapped to any platform component instance");
      continue;
    }
    ProcInfo proc;
    proc.part = part;
    proc.name = part->name();
    proc.behavior = comp->behavior();
    proc.home_pe = pe_of_part.at(target);
    proc.hw = part->tagged_value("ProcessType") == "hardware";
    proc.priority = sys.process_priority(*part);
    auto it = machine_of.find(proc.behavior);
    if (it == machine_of.end()) {
      model->machines_.push_back(
          std::make_unique<efsm::CompiledMachine>(*proc.behavior));
      it = machine_of.emplace(proc.behavior, model->machines_.back().get())
               .first;
    }
    proc.machine = it->second;
    for (std::string& port : send_ports(*proc.behavior)) {
      PortDest pd;
      pd.port = std::move(port);
      proc.ports.push_back(std::move(pd));
    }
    const auto index = static_cast<std::uint32_t>(model->procs_.size());
    model->proc_by_name_.emplace(proc.name, index);
    model->proc_by_part_.emplace(part, index);
    model->procs_.push_back(std::move(proc));
  }

  // Second pass: port destinations can point at processes declared later.
  for (ProcInfo& proc : model->procs_) {
    for (PortDest& pd : proc.ports) {
      const efsm::Endpoint dest =
          model->router_->destination(*proc.part, pd.port);
      pd.dest_port = dest.port != nullptr ? dest.port->name() : "";
      pd.proc = dest.part != nullptr ? model->proc_of_part(dest.part) : -1;
    }
  }

  // Dense route table. Precomputed for every PE pair (exploration sweeps
  // remap processes freely), with defects reported per process pair in the
  // order Simulation used to collect them.
  const std::size_t npe = model->pes_.size();
  model->routes_.assign(npe * npe, {});
  for (std::uint32_t a = 0; a < npe; ++a) {
    for (std::uint32_t b = 0; b < npe; ++b) {
      if (a == b) continue;
      std::vector<std::uint32_t>& out = model->routes_[a * npe + b];
      for (const uml::Property* seg_part :
           sys.plat().route(*model->pes_[a].part, *model->pes_[b].part)) {
        out.push_back(seg_of_part.at(seg_part));
      }
    }
  }
  std::set<std::string> detached;
  std::set<std::pair<std::string, std::string>> unroutable;
  for (const ProcInfo& a : model->procs_) {
    for (const ProcInfo& b : model->procs_) {
      if (a.home_pe == b.home_pe) continue;
      if (!model->route(a.home_pe, b.home_pe).empty()) continue;
      const PeInfo& pa = model->pes_[a.home_pe];
      const PeInfo& pb = model->pes_[b.home_pe];
      bool pair_ok = true;
      for (const PeInfo* pe : {&pa, &pb}) {
        if (sys.plat().segment_of(*pe->part) == nullptr &&
            detached.insert(pe->name).second) {
          defects.push_back("instance '" + pe->name +
                            "' is not attached to any communication "
                            "segment but hosts remote communication");
          pair_ok = false;
        }
      }
      if (pair_ok && unroutable
                         .insert({std::min(pa.name, pb.name),
                                  std::max(pa.name, pb.name)})
                         .second) {
        defects.push_back("no communication route between '" + pa.name +
                          "' and '" + pb.name + "'");
      }
    }
  }
  return model;
}

std::int32_t CompiledModel::pe_index(std::string_view name) const {
  auto it = pe_by_name_.find(name);
  return it == pe_by_name_.end() ? -1 : static_cast<std::int32_t>(it->second);
}

std::int32_t CompiledModel::seg_index(std::string_view name) const {
  auto it = seg_by_name_.find(name);
  return it == seg_by_name_.end() ? -1 : static_cast<std::int32_t>(it->second);
}

std::int32_t CompiledModel::proc_index(std::string_view name) const {
  auto it = proc_by_name_.find(name);
  return it == proc_by_name_.end() ? -1 : static_cast<std::int32_t>(it->second);
}

std::int32_t CompiledModel::proc_of_part(const uml::Property* part) const {
  auto it = proc_by_part_.find(part);
  return it == proc_by_part_.end() ? -1 : static_cast<std::int32_t>(it->second);
}

namespace {

class InterpreterImage final : public BackendImage {
 public:
  explicit InterpreterImage(std::shared_ptr<const CompiledModel> model)
      : model_(std::move(model)) {}
  std::shared_ptr<const CompiledModel> model() const override {
    return model_;
  }
  std::unique_ptr<ProcExecutor> make_executor(
      std::uint32_t proc) const override {
    const CompiledModel::ProcInfo& info = model_->procs()[proc];
    return std::make_unique<efsm::CompiledInstance>(*info.machine, info.name);
  }
  std::string_view name() const override { return "interpreter"; }
  std::uint64_t content_hash() const override { return 0; }

 private:
  std::shared_ptr<const CompiledModel> model_;
};

}  // namespace

std::shared_ptr<const BackendImage> interpreter_image(
    std::shared_ptr<const CompiledModel> model) {
  if (model == nullptr) return nullptr;
  return std::make_shared<const InterpreterImage>(std::move(model));
}

}  // namespace tut::sim
