// tut::efsm — compiled EFSM execution: expression bytecode and machine
// images.
//
// The paper's flow generates C code from the UML model before simulation;
// this module is the analogous lowering step inside the co-simulator. An
// efsm::Program compiles one Expr AST into a flat register bytecode run by a
// tight switch interpreter — no pointer chasing, no std::map environment. A
// CompiledMachine lowers a whole uml::StateMachine once: identifiers become
// dense variable slots, guards/assignments/timer delays/send arguments
// become Programs, and states carry their outgoing-transition dispatch
// tables. CompiledInstance is the per-process mutable state (slot file +
// current state) stepping over a shared read-only CompiledMachine — one
// machine image serves every process and every scenario of a batch run.
//
// Semantics are pinned to the AST interpreter (efsm::Instance): identical
// StepResults, identical laziness (short-circuit &&/||/?: skip evaluation,
// so an unknown identifier or division by zero only throws when the AST
// path would), identical error messages. The only divergence is *when*
// malformed expression text surfaces: the AST path throws ExprError at
// first evaluation, the compiled path at CompiledMachine construction.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "efsm/expr.hpp"
#include "efsm/machine.hpp"
#include "uml/statemachine.hpp"

namespace tut::efsm {

/// Invalid slot index.
inline constexpr std::uint16_t kNoSlot =
    std::numeric_limits<std::uint16_t>::max();

/// One Expr lowered to flat register bytecode. Registers are allocated in a
/// stack discipline (operand depth = register index), the result lands in
/// register 0. Jumps implement the short-circuit operators, and division /
/// modulo compile divisor-first with an explicit zero check, so evaluation
/// order, laziness and which-error-wins match Expr::eval exactly.
class Program {
 public:
  enum class Op : std::uint8_t {
    Const,    ///< r[dst] = consts[a]
    Slot,     ///< r[dst] = slots[a]; throws EvalError when slot undefined
    Missing,  ///< throws EvalError("unknown identifier 'names[a]'")
    Neg,      ///< r[dst] = -r[a]
    Not,      ///< r[dst] = r[a] == 0
    Add,      ///< r[dst] = r[a] + r[b]   (Sub/Mul analogous)
    Sub,
    Mul,
    Div,      ///< r[dst] = r[a] / r[b]; r[b] pre-checked by ChkDiv
    Mod,
    ChkDiv,   ///< throws EvalError("division by zero") when r[a] == 0
    ChkMod,   ///< throws EvalError("modulo by zero") when r[a] == 0
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Bool,     ///< r[dst] = r[a] != 0
    LoadOne,  ///< r[dst] = 1
    Jz,       ///< if r[a] == 0 jump to code[b]
    Jmp,      ///< jump to code[b]
  };

  struct Instr {
    Op op;
    std::uint16_t dst = 0;
    std::uint16_t a = 0;
    std::uint16_t b = 0;
  };

  /// Identifier-to-slot layout used at compile time. Identifiers absent
  /// from the map compile to Missing (they throw if and when evaluated,
  /// mirroring the AST interpreter's lazy unknown-identifier errors).
  using SlotMap = std::unordered_map<std::string, std::uint16_t>;

  /// Lowers `expr` against `slots`.
  static Program compile(const Expr& expr, const SlotMap& slots);

  /// Evaluation context: the slot file plus per-slot defined bits (an
  /// undefined slot reads as an unknown identifier) and the slot names for
  /// error messages.
  struct Slots {
    const long* values = nullptr;
    const std::uint8_t* defined = nullptr;
    const std::vector<std::string>* names = nullptr;
  };

  /// Runs the program. `regs` must hold at least reg_count() longs.
  long run(const Slots& slots, long* regs) const;

  std::uint16_t reg_count() const noexcept { return reg_count_; }
  std::size_t size() const noexcept { return code_.size(); }
  const std::vector<Instr>& code() const noexcept { return code_; }
  /// Constant pool (indexed by Const's `a`), for disassembly and native
  /// code generation.
  const std::vector<long>& consts() const noexcept { return consts_; }
  /// Identifier names behind Missing instructions (indexed by `a`), for
  /// static analyzers that want to report the unknown name without running.
  const std::vector<std::string>& missing_names() const noexcept {
    return missing_;
  }

 private:
  std::vector<Instr> code_;
  std::vector<long> consts_;
  std::vector<std::string> missing_;  ///< names for Missing instructions
  std::uint16_t reg_count_ = 1;
  friend class ProgramCompiler;
};

/// A uml::StateMachine lowered once into a flat, shared, read-only image.
/// Thread-safe after construction: any number of CompiledInstances (across
/// batch scenarios and threads) step over one CompiledMachine.
class CompiledMachine {
 public:
  /// Lowers `sm`. Throws ExprError on malformed expression text anywhere in
  /// the machine (the AST path would defer that to first evaluation).
  explicit CompiledMachine(const uml::StateMachine& sm);

  struct Action {
    uml::Action::Kind kind = uml::Action::Kind::Compute;
    std::uint16_t slot = kNoSlot;   ///< Assign target
    std::string name;               ///< Assign var / SetTimer/ResetTimer name
    std::string port;               ///< Send port
    const uml::Signal* signal = nullptr;  ///< Send signal
    Program expr;                   ///< Assign/Compute/SetTimer expression
    std::vector<Program> args;      ///< Send argument expressions
  };

  struct Transition {
    const uml::Signal* trigger_signal = nullptr;
    std::string trigger_port;  ///< empty matches any port
    std::string trigger_timer;
    bool completion = false;
    bool has_guard = false;
    Program guard;
    std::vector<Action> effects;
    std::uint32_t target = 0;  ///< state index
  };

  struct State {
    std::string name;
    std::vector<Action> entry;
    std::vector<std::uint32_t> outgoing;  ///< transition indices, decl order
  };

  const uml::StateMachine& source() const noexcept { return *sm_; }
  const std::vector<State>& states() const noexcept { return states_; }
  const std::vector<Transition>& transitions() const noexcept {
    return transitions_;
  }
  /// Initial state index; kNoState when the machine has none (start() then
  /// throws, exactly like the AST path).
  static constexpr std::uint32_t kNoState = 0xffffffffu;
  std::uint32_t initial_state() const noexcept { return initial_; }

  std::uint16_t slot_count() const noexcept {
    return static_cast<std::uint16_t>(slot_names_.size());
  }
  const std::vector<std::string>& slot_names() const noexcept {
    return slot_names_;
  }
  std::uint16_t slot_of(std::string_view name) const;
  /// Declared variables as (slot, initial value).
  const std::vector<std::pair<std::uint16_t, long>>& initial_values()
      const noexcept {
    return initials_;
  }
  /// Per-parameter slots for a trigger signal (one slot per declared signal
  /// parameter); nullptr for signals that trigger no transition of this
  /// machine (their deliveries cannot reach a guard, so no overlay is
  /// needed).
  const std::vector<std::uint16_t>* param_slots(const uml::Signal* s) const;

  /// Scratch register file size any Program of this machine may need.
  std::uint16_t max_regs() const noexcept { return max_regs_; }

 private:
  std::uint16_t intern_slot(const std::string& name);
  Program lower(const std::string& text);
  Action lower_action(const uml::Action& a);

  const uml::StateMachine* sm_;
  std::vector<State> states_;
  std::vector<Transition> transitions_;
  std::uint32_t initial_ = kNoState;
  std::vector<std::string> slot_names_;
  std::unordered_map<std::string, std::uint16_t> slot_index_;
  std::vector<std::pair<std::uint16_t, long>> initials_;
  std::unordered_map<const uml::Signal*, std::vector<std::uint16_t>> params_;
  std::uint16_t max_regs_ = 1;
};

/// The stepping surface of one process's execution state, whatever runs
/// it: CompiledInstance below, or an out-of-line executor such as
/// codegen::NativeInstance (the simulator's sim::ProcExecutor). Every
/// implementation returns identical StepResults and lets the same
/// exceptions escape (EvalError, LivelockError, std::logic_error) — the
/// simulator's fault handling and the lockstep tests rely on parity.
class ProcExecutor {
 public:
  virtual ~ProcExecutor() = default;
  virtual StepResult start() = 0;
  virtual StepResult reset() = 0;
  virtual StepResult deliver(const Event& event) = 0;
  virtual StepResult timer_fired(const std::string& timer) = 0;
  /// Rewinds to the freshly-constructed state (CompiledInstance::rewind).
  virtual void rewind() = 0;

  // White-box view for tests and examples.
  virtual bool started() const = 0;
  /// Current state name (empty before start()).
  virtual const std::string& state_name() const = 0;
  /// Value of a persistent variable; throws std::out_of_range when unset.
  virtual long variable(const std::string& name) const = 0;
};

/// Mutable execution state of one process over a shared CompiledMachine:
/// the bytecode interpreter. The API mirrors efsm::Instance; StepResults
/// are identical for identical event sequences.
class CompiledInstance final : public ProcExecutor {
 public:
  CompiledInstance(const CompiledMachine& machine, std::string name);

  StepResult start() override;
  StepResult reset() override;
  StepResult deliver(const Event& event) override;
  StepResult timer_fired(const std::string& timer) override;

  /// Rewinds to the freshly-constructed state — not started, slots at their
  /// declared initial values — without executing entry actions (unlike
  /// reset(), which restarts the machine). Step-for-step behaviour after
  /// rewind() is identical to a new instance; scenario batches use it to
  /// reuse one instance's allocations across runs.
  void rewind() override;

  const std::string& name() const noexcept { return name_; }
  const CompiledMachine& machine() const noexcept { return *machine_; }
  bool started() const noexcept override {
    return state_ != CompiledMachine::kNoState;
  }
  /// Current state name (empty before start()).
  const std::string& state_name() const override;
  /// Value of a persistent variable (declared, or created by an Assign).
  /// Throws std::out_of_range like Instance::variable.
  long variable(const std::string& name) const override;

 private:
  const CompiledMachine::Transition* find_transition(const Event* event,
                                                     const std::string& timer);
  void execute_actions(const std::vector<CompiledMachine::Action>& actions,
                       StepResult& result);
  void enter(std::uint32_t state, StepResult& result);
  void run_completions(StepResult& result);
  void restore_overlay();
  long eval(const Program& p);
  void init_slots();

  const CompiledMachine* machine_;
  std::string name_;
  std::uint32_t state_ = CompiledMachine::kNoState;
  std::vector<long> slots_;
  std::vector<std::uint8_t> defined_;
  std::vector<long> regs_;  ///< scratch register file

  // Parameter-overlay bookkeeping for the current delivery: saved (slot,
  // value, defined) triples restored after the triggered transition's
  // effects unless the slot was assigned during the step.
  struct Saved {
    std::uint16_t slot;
    long value;
    std::uint8_t defined;
  };
  std::vector<Saved> overlay_;
  std::vector<std::uint64_t> slot_stamp_;  ///< last step that wrote the slot
  std::uint64_t step_ = 0;
};

/// Renders one program as readable bytecode, one instruction per line
/// (`%04zu  Op      dst, a, b   ; comment`). `slot_names`, when given,
/// resolves Slot operands to identifiers in the comment column. Shared by
/// codegen debugging, `tut efsm dump` and the tests.
std::string disassemble(const Program& program,
                        const std::vector<std::string>* slot_names = nullptr);

/// Renders a whole machine: slots with initial values, then every state with
/// its entry actions and outgoing transitions, each embedded Program
/// disassembled inline.
std::string disassemble(const CompiledMachine& machine);

}  // namespace tut::efsm
