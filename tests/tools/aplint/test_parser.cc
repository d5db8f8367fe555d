/**
 * @file
 * Unit tests for the aplint declaration/scope parser: function and
 * annotation extraction, lock-member registration, the scope tree with
 * condition identifiers, call receivers, and comment directives.
 */

#include <gtest/gtest.h>

#include "parser.hh"

namespace ap::lint {
namespace {

const Func*
funcNamed(const FileModel& m, const std::string& name)
{
    for (const Func& f : m.funcs)
        if (f.name == name)
            return &f;
    return nullptr;
}

TEST(Parser, ExtractsTrailingAnnotations)
{
    FileModel m = parseFile(
        "t.hh",
        "struct C {\n"
        "  void go(int n) AP_LOCKSTEP AP_YIELDS;\n"
        "  bool probe() const AP_NO_YIELD;\n"
        "  void grab() AP_ACQUIRES(\"pt.bucket\");\n"
        "};\n");
    const Func* go = funcNamed(m, "go");
    ASSERT_NE(go, nullptr);
    EXPECT_EQ(go->className, "C");
    EXPECT_TRUE(go->hasAnn("AP_LOCKSTEP"));
    EXPECT_TRUE(go->hasAnn("AP_YIELDS"));
    EXPECT_FALSE(go->hasBody);

    const Func* probe = funcNamed(m, "probe");
    ASSERT_NE(probe, nullptr);
    EXPECT_TRUE(probe->hasAnn("AP_NO_YIELD"));

    const Func* grab = funcNamed(m, "grab");
    ASSERT_NE(grab, nullptr);
    const Annotation* a = grab->findAnn("AP_ACQUIRES");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->arg, "pt.bucket");
}

TEST(Parser, RegistersLockMembers)
{
    FileModel m = parseFile(
        "t.hh",
        "struct T {\n"
        "  Lock entry AP_LOCK_LEVEL(\"tlb.entry\");\n"
        "};\n");
    ASSERT_EQ(m.locks.size(), 1u);
    EXPECT_EQ(m.locks[0].name, "entry");
    EXPECT_EQ(m.locks[0].lockClass, "tlb.entry");
}

TEST(Parser, BuildsScopeTreeWithConditionIdents)
{
    FileModel m = parseFile(
        "t.cc",
        "void f(int lane, unsigned mask) {\n"
        "  if (lane == 0) {\n"
        "    g();\n"
        "  }\n"
        "  while (mask) { h(); }\n"
        "}\n");
    const Func* f = funcNamed(m, "f");
    ASSERT_NE(f, nullptr);
    ASSERT_TRUE(f->hasBody);

    // g()'s innermost scope must be an If whose cond mentions 'lane'.
    const Call* g = nullptr;
    const Call* h = nullptr;
    for (const Call& c : f->calls) {
        if (c.callee == "g")
            g = &c;
        if (c.callee == "h")
            h = &c;
    }
    ASSERT_NE(g, nullptr);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(f->scopes[g->scope].kind, ScopeKind::If);
    ASSERT_FALSE(f->scopes[g->scope].condIdents.empty());
    EXPECT_EQ(f->scopes[g->scope].condIdents[0], "lane");
    EXPECT_EQ(f->scopes[h->scope].kind, ScopeKind::Loop);
}

TEST(Parser, UnbracedStatementScopesCloseAtSemicolon)
{
    FileModel m = parseFile("t.cc",
                            "void f(int lane) {\n"
                            "  if (lane)\n"
                            "    g();\n"
                            "  h();\n"
                            "}\n");
    const Func* f = funcNamed(m, "f");
    ASSERT_NE(f, nullptr);
    const Call *g = nullptr, *h = nullptr;
    for (const Call& c : f->calls) {
        if (c.callee == "g")
            g = &c;
        if (c.callee == "h")
            h = &c;
    }
    ASSERT_NE(g, nullptr);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(f->scopes[g->scope].kind, ScopeKind::If);
    EXPECT_EQ(f->scopes[h->scope].kind, ScopeKind::Body);
}

TEST(Parser, ElseArmsTakeTheConditionsBeforeThem)
{
    // An `else` runs under the negation of its `if`, and an `else if`
    // under its own condition and the ones before it, so a lane test
    // anywhere up the chain makes the arm divergent.
    FileModel m = parseFile("t.cc",
                            "void f(int lane, bool ok) {\n"
                            "  if (lane == 0) {\n"
                            "    g();\n"
                            "  } else if (ok) {\n"
                            "    h();\n"
                            "  } else\n"
                            "    k();\n"
                            "}\n");
    const Func* f = funcNamed(m, "f");
    ASSERT_NE(f, nullptr);
    auto scopeOf = [&](const std::string& callee) -> const ScopeNode& {
        for (const Call& c : f->calls)
            if (c.callee == callee)
                return f->scopes[c.scope];
        ADD_FAILURE() << callee << " not found";
        return f->scopes[0];
    };
    const std::vector<std::string> both = {"lane", "ok"};
    EXPECT_EQ(scopeOf("h").kind, ScopeKind::If);
    EXPECT_EQ(scopeOf("h").condIdents, both);
    EXPECT_EQ(scopeOf("k").kind, ScopeKind::Else);
    EXPECT_EQ(scopeOf("k").condIdents, both);
}

TEST(Parser, DanglingElseBindsToTheInnermostIf)
{
    // C++ gives each `else` to the innermost `if` still without one,
    // even when one `;` closed several unbraced scopes: `k()` is the
    // `else` arm of `if (b)`, inside `if (a)`; `m()` is the `else` arm
    // of `if (a)`; and `q()` is the `else` arm of `if (c)`, inside the
    // unbraced loop.
    FileModel m = parseFile("t.cc",
                            "void f(bool a, bool b, bool c, int n) {\n"
                            "  if (a)\n"
                            "    if (b)\n"
                            "      g();\n"
                            "    else\n"
                            "      k();\n"
                            "  else\n"
                            "    m();\n"
                            "  for (int i = 0; i < n; ++i)\n"
                            "    if (c)\n"
                            "      h();\n"
                            "    else\n"
                            "      q();\n"
                            "}\n");
    const Func* f = funcNamed(m, "f");
    ASSERT_NE(f, nullptr);
    auto scopeOf = [&](const std::string& callee) -> int {
        for (const Call& c : f->calls)
            if (c.callee == callee)
                return c.scope;
        ADD_FAILURE() << callee << " not found";
        return 0;
    };
    const ScopeNode& k = f->scopes[scopeOf("k")];
    EXPECT_EQ(k.kind, ScopeKind::Else);
    EXPECT_EQ(k.condIdents, std::vector<std::string>{"b"});
    ASSERT_GE(k.parent, 0);
    EXPECT_EQ(f->scopes[k.parent].kind, ScopeKind::If);
    EXPECT_EQ(f->scopes[k.parent].condIdents, std::vector<std::string>{"a"});

    const ScopeNode& mm = f->scopes[scopeOf("m")];
    EXPECT_EQ(mm.kind, ScopeKind::Else);
    EXPECT_EQ(mm.condIdents, std::vector<std::string>{"a"});
    EXPECT_EQ(f->scopes[mm.parent].kind, ScopeKind::Body);

    const ScopeNode& q = f->scopes[scopeOf("q")];
    EXPECT_EQ(q.kind, ScopeKind::Else);
    EXPECT_EQ(q.condIdents, std::vector<std::string>{"c"});
    ASSERT_GE(q.parent, 0);
    EXPECT_EQ(f->scopes[q.parent].kind, ScopeKind::Loop);
}

TEST(Parser, RecordsCallReceivers)
{
    FileModel m = parseFile("t.cc",
                            "void f(D& d) {\n"
                            "  d.bucket.acquire();\n"
                            "  free_call();\n"
                            "}\n");
    const Func* f = funcNamed(m, "f");
    ASSERT_NE(f, nullptr);
    const Call* acq = nullptr;
    const Call* fc = nullptr;
    for (const Call& c : f->calls) {
        if (c.callee == "acquire")
            acq = &c;
        if (c.callee == "free_call")
            fc = &c;
    }
    ASSERT_NE(acq, nullptr);
    EXPECT_EQ(acq->receiver, "bucket");
    ASSERT_NE(fc, nullptr);
    EXPECT_EQ(fc->receiver, "");
}

TEST(Parser, ParsesWaiversAndDirectives)
{
    FileModel m = parseFile(
        "t.cc",
        "// aplint: allow-file(leader-only) harness drives the cache\n"
        "void f() {\n"
        "  // aplint: allow(no-yield) wake only, no suspend\n"
        "  g();\n"
        "  // aplint: allow(lock-order)\n"
        "  h();\n"
        "}\n");
    ASSERT_EQ(m.waivers.size(), 3u);
    EXPECT_TRUE(m.waivers[0].fileScope);
    EXPECT_EQ(m.waivers[0].rule, "leader-only");
    EXPECT_FALSE(m.waivers[1].fileScope);
    EXPECT_EQ(m.waivers[1].rule, "no-yield");
    EXPECT_FALSE(m.waivers[1].malformed);
    EXPECT_TRUE(m.waivers[2].malformed); // reason missing
}

TEST(Parser, OutOfLineDefinitionKeepsClassQualifier)
{
    FileModel m = parseFile("t.cc",
                            "void\n"
                            "Cache::acquirePage(int n)\n"
                            "{\n"
                            "  lk.acquire();\n"
                            "}\n");
    const Func* f = funcNamed(m, "acquirePage");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->className, "Cache");
    EXPECT_TRUE(f->hasBody);
}

TEST(Parser, LambdaBodiesBecomeLambdaScopes)
{
    FileModel m = parseFile("t.cc",
                            "void f(Dev& dev) {\n"
                            "  dev.launch(1, [&](Warp& w) {\n"
                            "    w.sync();\n"
                            "  });\n"
                            "}\n");
    const Func* f = funcNamed(m, "f");
    ASSERT_NE(f, nullptr);
    const Call* sync = nullptr;
    for (const Call& c : f->calls)
        if (c.callee == "sync")
            sync = &c;
    ASSERT_NE(sync, nullptr);
    EXPECT_EQ(f->scopes[sync->scope].kind, ScopeKind::Lambda);
}

} // namespace
} // namespace ap::lint
