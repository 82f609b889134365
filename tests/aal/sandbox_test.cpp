#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aal/script.hpp"
#include "util/rng.hpp"

namespace rbay::aal {
namespace {

TEST(Sandbox, InfiniteLoopIsTerminatedByBudget) {
  auto script = Script::load("function f() while true do end end");
  ASSERT_TRUE(script.ok());
  auto r = script.value()->call("f", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("budget"), std::string::npos);
}

TEST(Sandbox, BudgetIsPerCallNotCumulative) {
  SandboxLimits limits;
  limits.max_steps = 2'000;
  auto script = Script::load(R"(
function f()
  local s = 0
  for i = 1, 100 do s = s + i end
  return s
end)", limits);
  ASSERT_TRUE(script.ok());
  // Each call uses a fresh budget: 20 calls must all succeed even though
  // their cumulative step count far exceeds max_steps.
  for (int i = 0; i < 20; ++i) {
    auto r = script.value()->call("f", {});
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_DOUBLE_EQ(r.value().as_number(), 5050.0);
  }
}

TEST(Sandbox, TightBudgetStopsExpensiveHandler) {
  SandboxLimits limits;
  limits.max_steps = 50;
  auto script = Script::load(R"(
function cheap() return 1 end
function expensive()
  local s = 0
  for i = 1, 1000 do s = s + i end
  return s
end)", limits);
  ASSERT_TRUE(script.ok());
  EXPECT_TRUE(script.value()->call("cheap", {}).ok());
  EXPECT_FALSE(script.value()->call("expensive", {}).ok());
}

TEST(Sandbox, RunawayTopLevelChunkFailsLoad) {
  auto r = Script::load("while true do end");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("budget"), std::string::npos);
}

TEST(Sandbox, RecursionDepthIsLimited) {
  auto script = Script::load(R"(
function f(n) return f(n + 1) end)");
  ASSERT_TRUE(script.ok());
  auto r = script.value()->call("f", {Value::number(0)});
  ASSERT_FALSE(r.ok());
  // Either the depth limit or the step budget stops it — both are
  // acceptable terminations; it must not crash.
}

TEST(Sandbox, DepthLimitConfigurable) {
  SandboxLimits limits;
  limits.max_steps = 1'000'000;
  limits.max_recursion_depth = 10;
  auto script = Script::load(R"(
function f(n)
  if n == 0 then return 0 end
  return f(n - 1)
end)", limits);
  ASSERT_TRUE(script.ok());
  EXPECT_TRUE(script.value()->call("f", {Value::number(5)}).ok());
  auto deep = script.value()->call("f", {Value::number(50)});
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.error().find("recursion"), std::string::npos);
}

TEST(Sandbox, StepsUsedIsObservable) {
  auto script = Script::load("function f() return 1 + 1 end");
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(script.value()->call("f", {}).ok());
  EXPECT_GT(script.value()->last_call_steps(), 0);
  EXPECT_LT(script.value()->last_call_steps(), 50);
}

TEST(Sandbox, ErrorInHandlerDoesNotPoisonScript) {
  auto script = Script::load(R"(
state = 0
function bad() state = state + 1 error('boom') end
function good() return state end)");
  ASSERT_TRUE(script.ok());
  EXPECT_FALSE(script.value()->call("bad", {}).ok());
  auto r = script.value()->call("good", {});
  ASSERT_TRUE(r.ok());
  // Side effects before the error persist (no transactional rollback),
  // matching Lua semantics.
  EXPECT_DOUBLE_EQ(r.value().as_number(), 1.0);
}

TEST(Sandbox, MemoryFootprintGrowsWithState) {
  auto small = Script::load("AA = {x = 1}");
  auto large = Script::load(R"(
AA = {}
for i = 1, 100 do AA['key' .. i] = 'value-' .. i end)");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large.value()->memory_footprint(), small.value()->memory_footprint() + 1000);
}

TEST(Sandbox, HostCanReadAndWriteGlobals) {
  auto script = Script::load("function f() return host_value * 2 end");
  ASSERT_TRUE(script.ok());
  script.value()->set_global("host_value", Value::number(21));
  auto r = script.value()->call("f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().as_number(), 42.0);
  EXPECT_DOUBLE_EQ(script.value()->global("host_value").as_number(), 21.0);
  EXPECT_TRUE(script.value()->global("missing").is_nil());
}

TEST(Sandbox, DestroyedScriptReleasesItsGlobals) {
  // The handler closes over the globals that hold it; destroying the
  // script must break that cycle, or the whole environment — including
  // host values stored in it — is never freed.
  auto host = std::make_shared<Table>();
  {
    auto script = Script::load(R"(
AA = {NodeId = 27, Password = "3053482032"}
function onGet(caller, pw)
  if pw == AA.Password then return AA.NodeId end
  return nil
end)");
    ASSERT_TRUE(script.ok());
    script.value()->set_global("host", Value::table(host));
    EXPECT_EQ(host.use_count(), 2);
  }
  EXPECT_EQ(host.use_count(), 1);
}

TEST(Sandbox, HasFunctionDetectsHandlers) {
  auto script = Script::load(R"(
function onGet() return 1 end
not_a_function = 42)");
  ASSERT_TRUE(script.ok());
  EXPECT_TRUE(script.value()->has_function("onGet"));
  EXPECT_FALSE(script.value()->has_function("onSubscribe"));
  EXPECT_FALSE(script.value()->has_function("not_a_function"));
}

TEST(Sandbox, CallingMissingFunctionIsAnError) {
  auto script = Script::load("x = 1");
  ASSERT_TRUE(script.ok());
  EXPECT_FALSE(script.value()->call("ghost", {}).ok());
}

// --- property tests: random programs never crash or escape the sandbox ---

/// Random program over the full token vocabulary.  Most are syntactically
/// invalid; the ones that parse may still error or exhaust the budget at
/// run time.  Every outcome must be a clean Result, never a crash.
std::string random_token_soup(util::Rng& rng) {
  static const std::vector<std::string> kTokens = {
      "function", "end",    "if",    "then",   "else",  "while", "do",
      "for",      "return", "local", "and",    "or",    "not",   "nil",
      "true",     "false",  "error", "(",      ")",     "{",     "}",
      "[",        "]",      "=",     "==",     "~=",    "<",     ">",
      "+",        "-",      "*",     "/",      "..",    ",",     ".",
      "f",        "x",      "AA",    "s",      "i",     "1",     "42",
      "0.5",      "'str'",  "\"q\"", "#",      "%",     ";"};
  std::string program;
  const auto len = 1 + rng.uniform(40);
  for (std::uint64_t t = 0; t < len; ++t) {
    program += kTokens[rng.uniform(kTokens.size())];
    program += ' ';
  }
  return program;
}

/// Random but structurally valid handler body: nested loops, arithmetic,
/// table writes, and recursion picked from templates the grammar accepts.
std::string random_structured_program(util::Rng& rng) {
  static const std::vector<std::string> kBodies = {
      "local s = 0 for i = 1, 50 do s = s + i end return s",
      "local t = {} for i = 1, 20 do t['k' .. i] = i * 2 end return t['k7']",
      "if x == nil then return 0 else return x end",
      "local n = 0 while n < 30 do n = n + 1 end return n",
      "return f(1) or 0",
      "error('expected failure')",
      "return 'a' .. 'b' .. 42",
      "local d = 0 for i = 1, 10 do for j = 1, 10 do d = d + j end end return d",
  };
  std::string program = "AA = {limit = " + std::to_string(rng.uniform(100)) + "}\n";
  program += "function f(x) " + kBodies[rng.uniform(kBodies.size())] + " end\n";
  program += "function g() " + kBodies[rng.uniform(kBodies.size())] + " end\n";
  return program;
}

TEST(SandboxProperty, RandomTokenSoupNeverCrashesLoadOrCall) {
  util::Rng rng{0xA41'50FAULL};
  SandboxLimits limits;
  limits.max_steps = 5'000;
  limits.max_recursion_depth = 16;
  int loaded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Every tenth trial is a valid program with the soup tucked behind a
    // comment (the lexer still scans it), so the interpreter gets
    // exercised too; the rest is unconstrained garbage for the parser.
    const auto program =
        trial % 10 == 0
            ? "function f(x) return x end\n-- " + random_token_soup(rng)
            : random_token_soup(rng);
    auto script = Script::load(program, limits);
    if (!script.ok()) {
      EXPECT_FALSE(script.error().empty()) << program;
      continue;
    }
    ++loaded;
    // Whatever parsed must also execute within the budget or fail cleanly.
    auto r = script.value()->call("f", {Value::number(1)});
    if (!r.ok()) {
      EXPECT_FALSE(r.error().empty()) << program;
    }
    EXPECT_LE(script.value()->last_call_steps(), limits.max_steps) << program;
  }
  // The soup is mostly garbage, but the vocabulary guarantees a few valid
  // programs (e.g. bare assignments); a zero count means load() rejects
  // everything and the property test lost its teeth.
  EXPECT_GT(loaded, 0);
}

TEST(SandboxProperty, StructuredProgramsStayWithinBudgetOrFailCleanly) {
  util::Rng rng{77};
  SandboxLimits limits;
  limits.max_steps = 2'000;
  limits.max_recursion_depth = 12;
  for (int trial = 0; trial < 200; ++trial) {
    const auto program = random_structured_program(rng);
    auto script = Script::load(program, limits);
    ASSERT_TRUE(script.ok()) << script.error() << "\n" << program;
    for (const auto* fn : {"f", "g"}) {
      auto r = script.value()->call(fn, {Value::number(2)});
      if (!r.ok()) {
        EXPECT_FALSE(r.error().empty()) << program;
      }
      EXPECT_LE(script.value()->last_call_steps(), limits.max_steps) << program;
    }
    // The sandbox held: host-visible state is still reachable and sane.
    EXPECT_TRUE(script.value()->global("AA").is_table()) << program;
  }
}

}  // namespace
}  // namespace rbay::aal
