// Tests for the EFSM runtime: expression language, instance execution and
// composite-structure signal routing.
#include <gtest/gtest.h>

#include "efsm/expr.hpp"
#include "efsm/machine.hpp"
#include "efsm/router.hpp"
#include "uml/model.hpp"

using namespace tut;
using namespace tut::efsm;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct ExprCase {
  const char* label;
  const char* text;
  long expected;
};

// Without a printer gtest dumps the struct's bytes (string-literal
// addresses) into the test name, so ctest names would change on every
// relink under ASLR.
void PrintTo(const ExprCase& c, std::ostream* os) { *os << c.label; }

class ExprEval : public ::testing::TestWithParam<ExprCase> {};

TEST_P(ExprEval, Evaluates) {
  const Env env{{"a", 7}, {"b", 3}, {"len", 12}, {"x", 0}, {"_u2", 5}};
  EXPECT_EQ(Expr::compile(GetParam().text).eval(env), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExprEval,
    ::testing::Values(
        ExprCase{"literal", "42", 42},
        ExprCase{"variable", "a", 7},
        ExprCase{"underscore_ident", "_u2", 5},
        ExprCase{"add_sub", "a + b - 2", 8},
        ExprCase{"mul_precedence", "2 + 3 * 4", 14},
        ExprCase{"parens", "(2 + 3) * 4", 20},
        ExprCase{"div_mod", "a / b + a % b", 3},
        ExprCase{"unary_minus", "-a + 10", 3},
        ExprCase{"double_negation", "--a", 7},
        ExprCase{"not_zero", "!x", 1},
        ExprCase{"not_nonzero", "!a", 0},
        ExprCase{"eq", "a == 7", 1},
        ExprCase{"ne", "a != 7", 0},
        ExprCase{"lt", "b < a", 1},
        ExprCase{"le_boundary", "a <= 7", 1},
        ExprCase{"gt", "a > 7", 0},
        ExprCase{"ge", "a >= 8", 0},
        ExprCase{"and_true", "a > 0 && b > 0", 1},
        ExprCase{"and_false", "a > 0 && x > 0", 0},
        ExprCase{"or_shortcircuit", "a > 0 || 1 / x", 1},
        ExprCase{"and_shortcircuit", "x > 0 && 1 / x", 0},
        ExprCase{"ternary_true", "a > b ? 100 : 200", 100},
        ExprCase{"ternary_false", "a < b ? 100 : 200", 200},
        ExprCase{"nested_ternary", "x ? 1 : a ? 2 : 3", 2},
        ExprCase{"mixed", "400 * len + 2", 4802},
        ExprCase{"cmp_precedence", "1 + 2 == 3", 1},
        ExprCase{"whitespace", "  a+ b *2 ", 13}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(Expr, SyntaxErrors) {
  EXPECT_THROW((void)Expr::compile(""), ExprError);
  EXPECT_THROW((void)Expr::compile("1 +"), ExprError);
  EXPECT_THROW((void)Expr::compile("(1"), ExprError);
  EXPECT_THROW((void)Expr::compile("1 2"), ExprError);
  EXPECT_THROW((void)Expr::compile("a ? 1"), ExprError);
  EXPECT_THROW((void)Expr::compile("$bad"), ExprError);
}

TEST(Expr, EvalErrors) {
  const Env env{{"a", 1}};
  EXPECT_THROW((void)Expr::compile("nosuch").eval(env), EvalError);
  EXPECT_THROW((void)Expr::compile("1 / (a - 1)").eval(env), EvalError);
  EXPECT_THROW((void)Expr::compile("1 % (a - 1)").eval(env), EvalError);
}

TEST(Expr, Identifiers) {
  const auto ids = Expr::compile("a + b * a - foo").identifiers();
  EXPECT_EQ(ids, (std::vector<std::string>{"a", "b", "foo"}));
  EXPECT_TRUE(Expr::compile("1 + 2").identifiers().empty());
}

TEST(Expr, CacheReturnsSameObject) {
  ExprCache cache;
  const Expr& e1 = cache.get("a + 1");
  const Expr& e2 = cache.get("a + 1");
  EXPECT_EQ(&e1, &e2);
  const Expr& e3 = cache.get("a + 2");
  EXPECT_NE(&e1, &e3);
}

// ---------------------------------------------------------------------------
// Instance execution
// ---------------------------------------------------------------------------

namespace {

/// A small counter machine:
///   Idle --Inc(in)--> Idle             [assign n += step; compute 10]
///   Idle --Get(in) [n >= 3]--> Report  (entry: send out Result(n))
///   Report --(completion)--> Idle      [assign n = 0]
struct CounterModel {
  uml::Model model{"counter"};
  uml::Signal* inc;
  uml::Signal* get;
  uml::Signal* result;
  uml::Class* cls;
  uml::StateMachine* sm;

  CounterModel() {
    inc = &model.create_signal("Inc");
    inc->add_parameter("step", "int");
    get = &model.create_signal("Get");
    result = &model.create_signal("Result");
    result->add_parameter("value", "int");

    cls = &model.create_class("Counter", nullptr, true);
    model.add_port(*cls, "in").provide(*inc).provide(*get);
    model.add_port(*cls, "out").require(*result);

    sm = &model.create_behavior(*cls);
    sm->declare_variable("n", 0);
    auto& idle = model.add_state(*sm, "Idle", true);
    auto& report = model.add_state(*sm, "Report");
    report.on_entry(uml::Action::send("out", *result, {"n"}));

    model.add_transition(*sm, idle, idle, *inc, "in")
        .add_effect(uml::Action::assign("n", "n + step"))
        .add_effect(uml::Action::compute("10"));
    model.add_transition(*sm, idle, report, *get, "in").set_guard("n >= 3");
    model.add_transition(*sm, report, idle)
        .add_effect(uml::Action::assign("n", "0"));
  }
};

}  // namespace

TEST(Machine, StartEntersInitialState) {
  CounterModel m;
  Instance inst(*m.sm, "c");
  EXPECT_FALSE(inst.started());
  const auto r = inst.start();
  EXPECT_TRUE(inst.started());
  EXPECT_EQ(inst.state()->name(), "Idle");
  EXPECT_EQ(r.compute_cycles, 0);
  EXPECT_EQ(inst.variable("n"), 0);
}

TEST(Machine, DeliverBeforeStartThrows) {
  CounterModel m;
  Instance inst(*m.sm, "c");
  EXPECT_THROW((void)inst.deliver({m.inc, "in", {1}}), std::logic_error);
}

TEST(Machine, SignalTriggerWithParametersAndCompute) {
  CounterModel m;
  Instance inst(*m.sm, "c");
  inst.start();
  const auto r = inst.deliver({m.inc, "in", {5}});
  EXPECT_TRUE(r.fired);
  EXPECT_EQ(r.compute_cycles, 10);
  EXPECT_EQ(inst.variable("n"), 5);
  EXPECT_TRUE(r.sends.empty());
}

TEST(Machine, MissingArgsDefaultToZero) {
  CounterModel m;
  Instance inst(*m.sm, "c");
  inst.start();
  const auto r = inst.deliver({m.inc, "in", {}});
  EXPECT_TRUE(r.fired);
  EXPECT_EQ(inst.variable("n"), 0);
}

TEST(Machine, GuardBlocksUntilSatisfied) {
  CounterModel m;
  Instance inst(*m.sm, "c");
  inst.start();
  // n == 0: Get is discarded (guard false).
  auto r = inst.deliver({m.get, "in", {}});
  EXPECT_FALSE(r.fired);
  EXPECT_EQ(inst.state()->name(), "Idle");

  inst.deliver({m.inc, "in", {3}});
  r = inst.deliver({m.get, "in", {}});
  EXPECT_TRUE(r.fired);
  // Entry action of Report sent Result(n=3); completion reset n and
  // returned to Idle within the same step.
  ASSERT_EQ(r.sends.size(), 1u);
  EXPECT_EQ(r.sends[0].signal, m.result);
  EXPECT_EQ(r.sends[0].port, "out");
  ASSERT_EQ(r.sends[0].args.size(), 1u);
  EXPECT_EQ(r.sends[0].args[0], 3);
  EXPECT_EQ(inst.state()->name(), "Idle");
  EXPECT_EQ(inst.variable("n"), 0);
  EXPECT_EQ(r.transitions_taken, 2u);
}

TEST(Machine, WrongPortDoesNotTrigger) {
  CounterModel m;
  Instance inst(*m.sm, "c");
  inst.start();
  const auto r = inst.deliver({m.inc, "out", {1}});
  EXPECT_FALSE(r.fired);
}

TEST(Machine, UnknownSignalIsDiscarded) {
  CounterModel m;
  auto& other = m.model.create_signal("Other");
  Instance inst(*m.sm, "c");
  inst.start();
  EXPECT_FALSE(inst.deliver({&other, "in", {}}).fired);
}

TEST(Machine, TransitionPriorityIsDeclarationOrder) {
  uml::Model model{"m"};
  auto& sig = model.create_signal("S");
  auto& cls = model.create_class("C", nullptr, true);
  model.add_port(cls, "in").provide(sig);
  auto& sm = model.create_behavior(cls);
  auto& a = model.add_state(sm, "A", true);
  auto& b = model.add_state(sm, "B");
  auto& c = model.add_state(sm, "C");
  model.add_transition(sm, a, b, sig, "in");
  model.add_transition(sm, a, c, sig, "in");  // shadowed by the first
  Instance inst(sm, "i");
  inst.start();
  inst.deliver({&sig, "in", {}});
  EXPECT_EQ(inst.state()->name(), "B");
}

TEST(Machine, TimerTransitionsAndVariables) {
  uml::Model model{"m"};
  auto& cls = model.create_class("C", nullptr, true);
  auto& sm = model.create_behavior(cls);
  sm.declare_variable("ticks", 0);
  auto& a = model.add_state(sm, "A", true);
  a.on_entry(uml::Action::set_timer("t", "50"));
  model.add_timer_transition(sm, a, a, "t")
      .add_effect(uml::Action::assign("ticks", "ticks + 1"));

  Instance inst(sm, "i");
  const auto r0 = inst.start();
  ASSERT_EQ(r0.timers.size(), 1u);
  EXPECT_EQ(r0.timers[0].kind, TimerOp::Kind::Set);
  EXPECT_EQ(r0.timers[0].name, "t");
  EXPECT_EQ(r0.timers[0].delay, 50);

  const auto r1 = inst.timer_fired("t");
  EXPECT_TRUE(r1.fired);
  EXPECT_EQ(inst.variable("ticks"), 1);
  // Re-entering A re-arms the timer.
  ASSERT_EQ(r1.timers.size(), 1u);

  // Unknown timer: discarded.
  EXPECT_FALSE(inst.timer_fired("zzz").fired);
}

TEST(Machine, CompletionLivelockDetected) {
  uml::Model model{"m"};
  auto& cls = model.create_class("C", nullptr, true);
  auto& sm = model.create_behavior(cls);
  auto& a = model.add_state(sm, "A", true);
  auto& b = model.add_state(sm, "B");
  model.add_transition(sm, a, b);  // completion A->B
  model.add_transition(sm, b, a);  // completion B->A
  Instance inst(sm, "i");
  EXPECT_THROW((void)inst.start(), LivelockError);
}

TEST(Machine, UnknownVariableThrows) {
  CounterModel m;
  Instance inst(*m.sm, "c");
  EXPECT_THROW((void)inst.variable("zzz"), std::out_of_range);
}

TEST(Machine, AssignVisibleToLaterActionsInSameStep) {
  uml::Model model{"m"};
  auto& sig = model.create_signal("S");
  auto& out = model.create_signal("Out");
  out.add_parameter("v", "int");
  auto& cls = model.create_class("C", nullptr, true);
  model.add_port(cls, "in").provide(sig);
  model.add_port(cls, "out").require(out);
  auto& sm = model.create_behavior(cls);
  sm.declare_variable("n", 1);
  auto& a = model.add_state(sm, "A", true);
  model.add_transition(sm, a, a, sig, "in")
      .add_effect(uml::Action::assign("n", "n * 2"))
      .add_effect(uml::Action::assign("n", "n + 1"))
      .add_effect(uml::Action::send("out", out, {"n"}));
  Instance inst(sm, "i");
  inst.start();
  const auto r = inst.deliver({&sig, "in", {}});
  ASSERT_EQ(r.sends.size(), 1u);
  EXPECT_EQ(r.sends[0].args[0], 3);
  EXPECT_EQ(inst.variable("n"), 3);
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

namespace {

struct RoutedModel {
  uml::Model model{"routed"};
  uml::Signal* s;
  uml::Class* leaf;
  uml::Class* top;
  uml::Property* p1;
  uml::Property* p2;

  RoutedModel() {
    s = &model.create_signal("S");
    leaf = &model.create_class("Leaf", nullptr, true);
    model.add_port(*leaf, "a").provide(*s).require(*s);
    model.add_port(*leaf, "b").provide(*s).require(*s);
    top = &model.create_class("Top");
    model.add_port(*top, "ext").provide(*s);
    p1 = &model.add_part(*top, "p1", *leaf);
    p2 = &model.add_part(*top, "p2", *leaf);
    model.connect(*top, "p1", "a", "p2", "a");
    model.connect_boundary(*top, "ext", "p1", "b");
  }
};

}  // namespace

TEST(Router, RoutesBetweenParts) {
  RoutedModel m;
  Router router(*m.top);
  const Endpoint d = router.destination(*m.p1, "a");
  EXPECT_EQ(d.part, m.p2);
  ASSERT_NE(d.port, nullptr);
  EXPECT_EQ(d.port->name(), "a");
  // And symmetrically.
  const Endpoint back = router.destination(*m.p2, "a");
  EXPECT_EQ(back.part, m.p1);
}

TEST(Router, DelegationRoutesToEnvironmentFromInside) {
  RoutedModel m;
  Router router(*m.top);
  const Endpoint d = router.destination(*m.p1, "b");
  // p1.b is wired to the boundary port: from the inside this is the
  // environment.
  EXPECT_TRUE(d.is_environment());
  ASSERT_NE(d.port, nullptr);
  EXPECT_EQ(d.port->name(), "ext");
}

TEST(Router, BoundaryInjection) {
  RoutedModel m;
  Router router(*m.top);
  const Endpoint d = router.boundary_destination("ext");
  EXPECT_EQ(d.part, m.p1);
  EXPECT_EQ(d.port->name(), "b");
  EXPECT_TRUE(router.boundary_destination("nosuch").is_environment());
  EXPECT_EQ(router.boundary_destination("nosuch").port, nullptr);
}

TEST(Router, UnconnectedPortIsEnvironment) {
  RoutedModel m;
  auto& p3 = m.model.add_part(*m.top, "p3", *m.leaf);
  Router router(*m.top);
  EXPECT_TRUE(router.destination(p3, "a").is_environment());
  EXPECT_EQ(router.destination(p3, "a").port, nullptr);
  // Unknown port name: environment too.
  EXPECT_TRUE(router.destination(*m.p1, "zz").is_environment());
}
