// NativeImage: compile-and-load driver for the emitted translation unit,
// plus NativeInstance, the ProcExecutor adapter that steps one process
// through the loaded C ABI.
//
// The pipeline is generate -> hash -> cache lookup -> (compile) -> dlopen:
// the cache key is the FNV-1a hash of emitted source + compile flags +
// compiler command, so a model, flag or compiler change recompiles while
// repeated runs (and parallel test processes) reuse the .so. Compilation
// writes to a pid-suffixed temp file and renames into place, making
// concurrent builders race-safe; within one process a per-key single-flight
// gate additionally serializes same-hash builds, so exactly one thread pays
// the compiler shell-out and the rest wait for its rename and take the
// cache hit. The loaded library carries its own hash
// (tut_native_v1_hash, appended after hashing to break the circularity) and
// ABI version, both checked at load.

#include <dlfcn.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "codegen/native.hpp"
#include "intern/fnv.hpp"
#include "uml/structure.hpp"

namespace tut::codegen {
namespace {

namespace fs = std::filesystem;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool command_works(const std::string& cxx) {
  if (cxx.empty()) return false;
  const std::string cmd = cxx + " --version > /dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

// Single-flight gate per content hash: two concurrent builds of the same
// key used to race to compile the same object (safe through the pid-tmp +
// rename dance, but each racer paid a full compiler shell-out). One mutex
// per key serializes the exists-check/compile/rename window, so the first
// builder compiles and every concurrent peer waits, then takes the cache
// hit. Keyed by hash only — the hash already covers source, flags, compiler
// and thereby the cache-relevant identity (distinct cache_dirs of the same
// key share a gate, which costs a little concurrency, never correctness).
std::shared_ptr<std::mutex> build_gate(std::uint64_t key) {
  static std::mutex gates_mu;
  static std::map<std::uint64_t, std::weak_ptr<std::mutex>> gates;
  const std::lock_guard<std::mutex> lock(gates_mu);
  std::weak_ptr<std::mutex>& slot = gates[key];
  std::shared_ptr<std::mutex> gate = slot.lock();
  if (gate == nullptr) {
    gate = std::make_shared<std::mutex>();
    slot = gate;
  }
  return gate;
}

std::string default_cache_dir() {
  if (const char* dir = std::getenv("TUT_NATIVE_CACHE"); dir && *dir)
    return dir;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
    return std::string(xdg) + "/tut-native";
  if (const char* home = std::getenv("HOME"); home && *home)
    return std::string(home) + "/.cache/tut-native";
  return "/tmp/tut-native";
}

void write_file_atomic(const fs::path& path, const std::string& content) {
  const fs::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw std::runtime_error("[native.cache.unwritable] cannot write '" +
                               tmp.string() + "'");
    }
  }
  fs::rename(tmp, path);
}

std::string read_file_head(const fs::path& path, std::size_t limit) {
  std::ifstream in(path, std::ios::binary);
  std::string text(limit, '\0');
  in.read(text.data(), static_cast<std::streamsize>(limit));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return text;
}

// Host-side mirrors of the emitted C ABI structs (layout must match
// native_emit.cpp's preamble; the lockstep tests pin the behaviour).
struct NativeOut {
  long cycles;
  unsigned long long transitions;
  int fired;
  unsigned err_aux;
};

struct NativeSink {
  void* ctx;
  void (*send)(void*, unsigned, const long*, unsigned);
  void (*timer_set)(void*, unsigned, long);
  void (*timer_reset)(void*, unsigned);
};

struct SinkCtx {
  efsm::StepResult* result;
  const NativeMachineInfo* info;
};

void cb_send(void* ctx, unsigned id, const long* args, unsigned nargs) {
  auto* c = static_cast<SinkCtx*>(ctx);
  efsm::Send send;
  send.port = c->info->sends[id].first;
  send.signal = c->info->sends[id].second;
  send.args.assign(args, args + nargs);
  c->result->sends.push_back(std::move(send));
}

void cb_timer_set(void* ctx, unsigned id, long delay) {
  auto* c = static_cast<SinkCtx*>(ctx);
  c->result->timers.push_back(
      {efsm::TimerOp::Kind::Set, c->info->timers[id], delay});
}

void cb_timer_reset(void* ctx, unsigned id) {
  auto* c = static_cast<SinkCtx*>(ctx);
  c->result->timers.push_back(
      {efsm::TimerOp::Kind::Reset, c->info->timers[id], 0});
}

template <typename T>
T resolve(void* handle, const char* name, std::vector<std::string>& missing) {
  void* sym = ::dlsym(handle, name);
  if (sym == nullptr) missing.emplace_back(name);
  return reinterpret_cast<T>(sym);
}

}  // namespace

std::string NativeImage::find_compiler(const std::string& preferred) {
  if (!preferred.empty()) return command_works(preferred) ? preferred : "";
  if (const char* env = std::getenv("CXX"); env && *env) {
    if (command_works(env)) return env;
  }
  for (const char* candidate : {"c++", "g++", "clang++"}) {
    if (command_works(candidate)) return candidate;
  }
  return "";
}

std::shared_ptr<const NativeImage> NativeImage::build(
    std::shared_ptr<const sim::CompiledModel> model, NativeOptions opt) {
  if (model == nullptr) {
    throw std::invalid_argument("NativeImage requires a non-null model");
  }
  auto image = std::shared_ptr<NativeImage>(new NativeImage());
  image->model_ = std::move(model);
  image->source_ = emit_native(*image->model_);

  const std::string cxx = find_compiler(opt.cxx);
  if (cxx.empty()) {
    throw std::runtime_error(
        "[native.compiler.missing] no C++ compiler available (tried $CXX, "
        "c++, g++, clang++); use --backend=interpreter or install one");
  }
  std::string flags = "-O2 -fPIC -shared -std=c++17";
  if (!opt.extra_flags.empty()) flags += " " + opt.extra_flags;

  intern::Fnv fnv;
  fnv.str(image->source_.code);
  fnv.str(flags);
  fnv.str(cxx);
  image->hash_ = fnv.h;
  const std::string key = hex64(image->hash_);

  const fs::path dir =
      opt.cache_dir.empty() ? fs::path(default_cache_dir())
                            : fs::path(opt.cache_dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("[native.cache.unwritable] cannot create "
                             "cache directory '" + dir.string() + "': " +
                             ec.message());
  }
  const fs::path cpp = dir / (key + ".cpp");
  const fs::path so = dir / (key + ".so");
  const fs::path err = dir / (key + ".err");

  const std::shared_ptr<std::mutex> gate = build_gate(image->hash_);
  const std::lock_guard<std::mutex> build_lock(*gate);
  if (opt.force_rebuild || !fs::exists(so)) {
    // The emitted TU hashes without the hash export (circular otherwise);
    // append it now so the loaded library can prove its identity.
    std::string text = image->source_.code;
    text += "\nextern \"C\" unsigned long long tut_native_v1_hash(void) "
            "{ return 0x" + key + "ull; }\n";
    write_file_atomic(cpp, text);
    const fs::path tmp_so =
        so.string() + ".tmp." + std::to_string(::getpid());
    const std::string cmd = cxx + " " + flags + " -o \"" + tmp_so.string() +
                            "\" \"" + cpp.string() + "\" 2> \"" +
                            err.string() + "\"";
    if (std::system(cmd.c_str()) != 0) {
      fs::remove(tmp_so, ec);
      throw std::runtime_error("[native.compile.failed] '" + cxx +
                               "' failed on generated source '" +
                               cpp.string() + "':\n" +
                               read_file_head(err, 4000));
    }
    fs::rename(tmp_so, so);
  } else {
    image->cache_hit_ = true;
  }
  image->so_path_ = so.string();

  image->handle_ = ::dlopen(image->so_path_.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (image->handle_ == nullptr) {
    throw std::runtime_error("[native.dlopen.failed] cannot load '" +
                             image->so_path_ + "': " + ::dlerror());
  }
  std::vector<std::string> missing;
  Abi& abi = image->abi_;
  void* h = image->handle_;
  abi.abi = resolve<int (*)()>(h, "tut_native_v1_abi", missing);
  abi.hash = resolve<std::uint64_t (*)()>(h, "tut_native_v1_hash", missing);
  abi.machine_count =
      resolve<unsigned (*)()>(h, "tut_native_v1_machine_count", missing);
  abi.instance_size = resolve<std::uint64_t (*)(unsigned)>(
      h, "tut_native_v1_instance_size", missing);
  abi.init =
      resolve<void (*)(unsigned, void*)>(h, "tut_native_v1_init", missing);
  abi.start = resolve<int (*)(unsigned, void*, const void*, void*)>(
      h, "tut_native_v1_start", missing);
  abi.reset = resolve<int (*)(unsigned, void*, const void*, void*)>(
      h, "tut_native_v1_reset", missing);
  abi.deliver = resolve<int (*)(unsigned, void*, int, int, const long*,
                                unsigned, const void*, void*)>(
      h, "tut_native_v1_deliver", missing);
  abi.timer = resolve<int (*)(unsigned, void*, int, const void*, void*)>(
      h, "tut_native_v1_timer", missing);
  abi.state = resolve<int (*)(unsigned, const void*)>(
      h, "tut_native_v1_state", missing);
  abi.slot = resolve<long (*)(unsigned, const void*, unsigned, int*)>(
      h, "tut_native_v1_slot", missing);
  if (!missing.empty()) {
    std::string names;
    for (const std::string& n : missing) names += " " + n;
    throw std::runtime_error("[native.abi.mismatch] '" + image->so_path_ +
                             "' lacks entry points:" + names);
  }
  if (abi.abi() != 1) {
    throw std::runtime_error(
        "[native.abi.mismatch] '" + image->so_path_ + "' speaks ABI v" +
        std::to_string(abi.abi()) + ", host expects v1");
  }
  if (abi.hash() != image->hash_) {
    throw std::runtime_error("[native.abi.mismatch] '" + image->so_path_ +
                             "' content hash " + hex64(abi.hash()) +
                             " != expected " + key +
                             " (stale cache entry?)");
  }
  if (abi.machine_count() != image->source_.machines.size()) {
    throw std::runtime_error("[native.abi.mismatch] '" + image->so_path_ +
                             "' machine count mismatch");
  }
  return image;
}

NativeImage::~NativeImage() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

std::unique_ptr<sim::ProcExecutor> NativeImage::make_executor(
    std::uint32_t proc) const {
  const auto& procs = model_->procs();
  if (proc >= procs.size()) {
    throw std::out_of_range("NativeImage has no process index " +
                            std::to_string(proc));
  }
  return std::make_unique<NativeInstance>(shared_from_this(),
                                          source_.proc_machine[proc],
                                          procs[proc].name);
}

// ---------------------------------------------------------------------------
// NativeInstance
// ---------------------------------------------------------------------------

NativeInstance::NativeInstance(std::shared_ptr<const NativeImage> image,
                               std::uint32_t machine, std::string name)
    : image_(std::move(image)),
      info_(&image_->source().machines.at(machine)),
      machine_(machine),
      name_(std::move(name)) {
  const std::uint64_t size = image_->abi().instance_size(machine);
  blob_ = std::make_unique<std::uint64_t[]>(
      size == 0 ? 1 : (size + 7) / 8);
  image_->abi().init(machine_, blob_.get());
  for (std::size_t i = 0; i < info_->signals.size(); ++i) {
    sig_ids_.emplace(info_->signals[i], static_cast<int>(i));
  }
  for (std::size_t i = 0; i < info_->ports.size(); ++i) {
    port_ids_.emplace(info_->ports[i], static_cast<int>(i));
  }
  for (std::size_t i = 0; i < info_->timers.size(); ++i) {
    timer_ids_.emplace(info_->timers[i], static_cast<int>(i));
  }
}

void NativeInstance::raise(int err, unsigned aux) const {
  const efsm::CompiledMachine& m = *info_->machine;
  switch (err) {
    case 1: {
      const auto& names = m.slot_names();
      throw efsm::EvalError(
          "unknown identifier '" +
          (aux < names.size() ? names[aux] : std::string("?")) + "'");
    }
    case 2:
      throw efsm::EvalError(
          "unknown identifier '" +
          (aux < info_->missing.size() ? info_->missing[aux]
                                       : std::string("?")) +
          "'");
    case 3:
      throw efsm::EvalError("division by zero");
    case 4:
      throw efsm::EvalError("modulo by zero");
    case 5:
      throw efsm::LivelockError(
          "instance '" + name_ + "' chained more than 1000 completion "
          "transitions in state '" +
          (aux < m.states().size() ? m.states()[aux].name
                                   : std::string("?")) +
          "'");
    case 6:
      throw std::logic_error("instance '" + name_ + "' not started");
    case 7:
      throw std::logic_error("state machine '" + m.source().name() +
                             "' has no initial state");
    default:
      throw std::runtime_error("[native.abi.error] instance '" + name_ +
                               "' returned unknown error code " +
                               std::to_string(err));
  }
}

efsm::StepResult NativeInstance::finish(int err, const void* out,
                                        efsm::StepResult result) const {
  const auto* o = static_cast<const NativeOut*>(out);
  if (err != 0) raise(err, o->err_aux);
  result.fired = o->fired != 0;
  result.compute_cycles = o->cycles;
  result.transitions_taken = static_cast<std::size_t>(o->transitions);
  return result;
}

efsm::StepResult NativeInstance::start() {
  efsm::StepResult result;
  NativeOut out{};
  SinkCtx ctx{&result, info_};
  NativeSink sink{&ctx, &cb_send, &cb_timer_set, &cb_timer_reset};
  const int rc = image_->abi().start(machine_, blob_.get(), &sink, &out);
  return finish(rc, &out, std::move(result));
}

efsm::StepResult NativeInstance::reset() {
  efsm::StepResult result;
  NativeOut out{};
  SinkCtx ctx{&result, info_};
  NativeSink sink{&ctx, &cb_send, &cb_timer_set, &cb_timer_reset};
  const int rc = image_->abi().reset(machine_, blob_.get(), &sink, &out);
  return finish(rc, &out, std::move(result));
}

efsm::StepResult NativeInstance::deliver(const efsm::Event& event) {
  int sig = -2;
  if (event.signal != nullptr) {
    auto it = sig_ids_.find(event.signal);
    sig = it == sig_ids_.end() ? -1 : it->second;
  }
  int port = -1;
  if (auto it = port_ids_.find(event.port); it != port_ids_.end()) {
    port = it->second;
  }
  efsm::StepResult result;
  NativeOut out{};
  SinkCtx ctx{&result, info_};
  NativeSink sink{&ctx, &cb_send, &cb_timer_set, &cb_timer_reset};
  const int rc = image_->abi().deliver(
      machine_, blob_.get(), sig, port, event.args.data(),
      static_cast<unsigned>(event.args.size()), &sink, &out);
  return finish(rc, &out, std::move(result));
}

efsm::StepResult NativeInstance::timer_fired(const std::string& timer) {
  int tm = -2;  // empty name: the interpreter's completion poll
  if (!timer.empty()) {
    auto it = timer_ids_.find(timer);
    tm = it == timer_ids_.end() ? -1 : it->second;
  }
  efsm::StepResult result;
  NativeOut out{};
  SinkCtx ctx{&result, info_};
  NativeSink sink{&ctx, &cb_send, &cb_timer_set, &cb_timer_reset};
  const int rc =
      image_->abi().timer(machine_, blob_.get(), tm, &sink, &out);
  return finish(rc, &out, std::move(result));
}

void NativeInstance::rewind() { image_->abi().init(machine_, blob_.get()); }

bool NativeInstance::started() const {
  return image_->abi().state(machine_, blob_.get()) >= 0;
}

const std::string& NativeInstance::state_name() const {
  static const std::string kEmpty;
  const int state = image_->abi().state(machine_, blob_.get());
  if (state < 0) return kEmpty;
  return info_->machine->states()[static_cast<std::size_t>(state)].name;
}

long NativeInstance::variable(const std::string& name) const {
  const std::uint16_t slot = info_->machine->slot_of(name);
  int defined = 0;
  long value = 0;
  if (slot != efsm::kNoSlot) {
    value = image_->abi().slot(machine_, blob_.get(), slot, &defined);
  }
  if (slot == efsm::kNoSlot || defined == 0) {
    throw std::out_of_range("instance '" + name_ + "' has no variable '" +
                            name + "'");
  }
  return value;
}

}  // namespace tut::codegen
