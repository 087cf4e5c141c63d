// codegen::native — native machine code generation from EFSM bytecode.
//
// The paper's flow compiles the UML model to embedded C before execution;
// this module closes the same loop inside the co-simulator. emit_native()
// walks every distinct efsm::CompiledMachine of a sim::CompiledModel and
// translates its Program bytecode instruction-for-instruction into
// specialized C++: one set of functions per machine (start / reset /
// deliver / timer dispatchers over a switch on the current state), each
// guard and action expression lowered to straight-line statements with the
// interpreter's registers as locals, guards const-folded when they touch no
// variable, and transition targets / signal parameter-slot tables baked in
// as constexpr arrays. The emitted translation unit is self-contained
// (no tut headers) behind a stable C ABI, `tut_native_v1`.
//
// NativeImage drives the build: shell out to the configured C++ compiler
// ($CXX, else the first of c++/g++/clang++ that answers --version), cache
// the shared object by FNV-1a content hash of source + flags + compiler
// under ~/.cache/tut-native/, dlopen the result and implement
// sim::BackendImage over it. NativeInstance adapts one machine's entry
// points to the efsm step surface, reconstructing the interpreter's exact
// exceptions from ABI error codes — native and interpreted runs produce
// byte-identical SimulationLogs, pinned by the lockstep tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "efsm/machine.hpp"
#include "efsm/program.hpp"
#include "sim/backend.hpp"
#include "sim/compiled.hpp"

namespace tut::codegen {

/// Host-side tables mirroring the id spaces baked into one generated
/// machine. The emitter builds both sides in a single deterministic walk,
/// so an id agreed on here is the id compiled into the .so.
struct NativeMachineInfo {
  const efsm::CompiledMachine* machine = nullptr;
  /// Trigger signals, first-seen in transition declaration order; index is
  /// the signal id the generated deliver() switches on (-2 encodes a null
  /// signal, -1 a signal unknown to this machine).
  std::vector<const uml::Signal*> signals;
  /// Distinct non-empty trigger ports, first-seen order; index = port id.
  std::vector<std::string> ports;
  /// Timer names (trigger timers, then SetTimer/ResetTimer operands), in
  /// first-seen canonical walk order; index = timer id (-2 encodes the
  /// empty name, which the interpreter treats as a completion poll).
  std::vector<std::string> timers;
  /// Distinct Send (port, signal) pairs in canonical action order; index is
  /// the send id reported through the sink callback.
  std::vector<std::pair<std::string, const uml::Signal*>> sends;
  /// Unknown identifiers per Missing op, in program emission order, for
  /// reconstructing the interpreter's EvalError messages.
  std::vector<std::string> missing;
};

/// One emitted translation unit covering every machine of a model.
struct NativeSource {
  std::string code;                         ///< the C++ TU (no ABI hash yet)
  std::vector<NativeMachineInfo> machines;  ///< by generated machine index
  std::vector<std::uint32_t> proc_machine;  ///< process index -> machine index
};

/// Emits the native translation unit for `model`'s bytecode images.
/// Deterministic: equal models emit byte-identical source.
NativeSource emit_native(const sim::CompiledModel& model);

/// Compiler / cache knobs for NativeImage::build.
struct NativeOptions {
  /// C++ compiler command. Empty: $CXX, then the first of c++ / g++ /
  /// clang++ that runs `--version` successfully.
  std::string cxx;
  /// Cache directory for generated sources and shared objects. Empty:
  /// $TUT_NATIVE_CACHE, else $XDG_CACHE_HOME/tut-native, else
  /// $HOME/.cache/tut-native, else /tmp/tut-native.
  std::string cache_dir;
  /// Extra flags appended to the compile command (part of the cache key).
  std::string extra_flags;
  /// Recompile even when the cached .so exists.
  bool force_rebuild = false;
};

/// A generated, compiled and dlopen'ed behaviour image. Immutable and
/// shareable: any number of Simulations on any number of threads draw
/// executors from one image; the dlopen handle lives until the last
/// NativeInstance and the image itself are gone.
class NativeImage final : public sim::BackendImage,
                          public std::enable_shared_from_this<NativeImage> {
 public:
  /// Emits, compiles (or reuses the cached .so) and loads the image.
  /// Throws std::runtime_error with a stable "[native.*]" tag on failure:
  /// [native.compiler.missing] when no compiler answers, [native.compile.
  /// failed] with the captured compiler stderr, [native.dlopen.failed],
  /// [native.abi.mismatch]; std::invalid_argument on a null or
  /// bytecode-less model.
  static std::shared_ptr<const NativeImage> build(
      std::shared_ptr<const sim::CompiledModel> model, NativeOptions opt = {});

  ~NativeImage() override;
  NativeImage(const NativeImage&) = delete;
  NativeImage& operator=(const NativeImage&) = delete;

  std::shared_ptr<const sim::CompiledModel> model() const override {
    return model_;
  }
  std::unique_ptr<sim::ProcExecutor> make_executor(
      std::uint32_t proc) const override;
  std::string_view name() const override { return "native"; }
  /// FNV-1a over emitted source + flags + compiler command; also exported
  /// by the .so (tut_native_v1_hash) and checked at load.
  std::uint64_t content_hash() const override { return hash_; }

  const NativeSource& source() const noexcept { return source_; }
  const std::string& library_path() const noexcept { return so_path_; }
  /// True when the shared object came from the cache without compiling.
  bool cache_hit() const noexcept { return cache_hit_; }

  /// Resolved compiler command per NativeOptions rules; empty when none is
  /// available (callers then fall back to the interpreter).
  static std::string find_compiler(const std::string& preferred = {});

  /// Entry points resolved from the loaded library (tut_native_v1_*).
  struct Abi {
    int (*abi)() = nullptr;
    std::uint64_t (*hash)() = nullptr;
    unsigned (*machine_count)() = nullptr;
    std::uint64_t (*instance_size)(unsigned) = nullptr;
    void (*init)(unsigned, void*) = nullptr;
    int (*start)(unsigned, void*, const void*, void*) = nullptr;
    int (*reset)(unsigned, void*, const void*, void*) = nullptr;
    int (*deliver)(unsigned, void*, int, int, const long*, unsigned,
                   const void*, void*) = nullptr;
    int (*timer)(unsigned, void*, int, const void*, void*) = nullptr;
    int (*state)(unsigned, const void*) = nullptr;
    long (*slot)(unsigned, const void*, unsigned, int*) = nullptr;
  };
  const Abi& abi() const noexcept { return abi_; }

 private:
  NativeImage() = default;

  std::shared_ptr<const sim::CompiledModel> model_;
  NativeSource source_;
  std::string so_path_;
  std::uint64_t hash_ = 0;
  bool cache_hit_ = false;
  void* handle_ = nullptr;
  Abi abi_;
};

/// One process's native execution state: an opaque instance blob stepped
/// through the image's C ABI. Mirrors efsm::CompiledInstance exactly —
/// StepResults, exception types and messages included.
class NativeInstance final : public sim::ProcExecutor {
 public:
  NativeInstance(std::shared_ptr<const NativeImage> image,
                 std::uint32_t machine, std::string name);

  efsm::StepResult start() override;
  efsm::StepResult reset() override;
  efsm::StepResult deliver(const efsm::Event& event) override;
  efsm::StepResult timer_fired(const std::string& timer) override;
  void rewind() override;

  // Introspection for the lockstep tests (CompiledInstance surface).
  const std::string& name() const noexcept { return name_; }
  bool started() const;
  const std::string& state_name() const;
  long variable(const std::string& name) const;

 private:
  [[noreturn]] void raise(int err, unsigned aux) const;
  efsm::StepResult finish(int err, const void* out,
                          efsm::StepResult result) const;

  std::shared_ptr<const NativeImage> image_;
  const NativeMachineInfo* info_ = nullptr;
  std::uint32_t machine_ = 0;
  std::string name_;
  std::unique_ptr<std::uint64_t[]> blob_;  ///< instance storage, 8-aligned
  std::unordered_map<const uml::Signal*, int> sig_ids_;
  std::unordered_map<std::string, int> port_ids_;
  std::unordered_map<std::string, int> timer_ids_;
};

}  // namespace tut::codegen
