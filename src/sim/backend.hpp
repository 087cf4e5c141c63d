// tut::sim — pluggable process-behaviour backends.
//
// The simulator owns event routing, timing and logging; *how* one process
// steps its state machine is a backend decision, and it lives only in the
// BackendImage a run holds. Every run holds one: the bytecode interpreter
// (interpreter_image(), efsm::CompiledInstance) or an out-of-line image such
// as codegen::NativeImage's dlopen'ed machine code. The AST walker
// (efsm::Instance) is a test reference only. The executor interface is
// deliberately the exact CompiledInstance step surface — identical
// StepResults in, identical SimulationLogs out — so a backend swap is
// observable only through wall-clock time and the provenance fields (name +
// content hash) that batch and campaign runs record. Resource envelopes
// (sim::ResourceProfile) are part of that parity: caps live in the
// simulator layer (log, event queue), never in a backend, so an envelope
// miss raises the same EnvelopeError — same tag, same message, same sim
// time — under every executor, and in-envelope runs stay byte-identical
// across backends.
//
// sim must not depend on codegen (codegen links sim), so the simulator only
// sees these abstract classes; codegen::NativeImage implements them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "efsm/program.hpp"

namespace tut::sim {

class CompiledModel;

/// Which executor a run steps its processes with. Interpreter is the
/// bytecode interpreter (the default); Native is a
/// generated-and-dlopen'ed BackendImage. The values are wire words of the
/// serve protocol.
enum class Backend : std::uint32_t { Interpreter = 0, Native = 1 };

/// Mutable per-process execution state behind a backend: the efsm
/// stepping surface, which efsm::CompiledInstance implements directly.
using ProcExecutor = efsm::ProcExecutor;

/// A loaded behaviour image covering every process of one CompiledModel.
/// Shared and immutable: batch and campaign workers on any number of
/// threads draw executors from one image.
class BackendImage {
 public:
  virtual ~BackendImage() = default;
  /// The model this image was generated from; Simulation runs it for
  /// routing, mapping and timing while the image supplies behaviour.
  virtual std::shared_ptr<const CompiledModel> model() const = 0;
  /// Fresh executor for process `proc` (CompiledModel process index).
  virtual std::unique_ptr<ProcExecutor> make_executor(
      std::uint32_t proc) const = 0;
  /// Short backend name for provenance output, e.g. "native".
  virtual std::string_view name() const = 0;
  /// Content hash of the generated image (source + flags); the
  /// interpreter, which generates nothing, reports 0.
  virtual std::uint64_t content_hash() const = 0;
};

/// The bytecode interpreter as a BackendImage over `model`: executors are
/// efsm::CompiledInstances, name() is "interpreter", content_hash() is 0.
/// Returns null for a null model, so the callers' argument checks see it.
std::shared_ptr<const BackendImage> interpreter_image(
    std::shared_ptr<const CompiledModel> model);

}  // namespace tut::sim
