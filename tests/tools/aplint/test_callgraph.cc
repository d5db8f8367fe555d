/**
 * @file
 * Unit tests for the whole-program layer: call-graph construction,
 * bottom-up contract propagation (yields / leader-only / acquires),
 * the declared boundaries that stop inference, the witness chains
 * attached to each inferred summary, and the rule engine's one check
 * per call site over those summaries: an inferred contract is filed
 * under its own rule, with the chain in the message.
 */

#include <gtest/gtest.h>

#include "callgraph.hh"
#include "parser.hh"

namespace ap::lint {
namespace {

std::vector<FileModel>
parseOne(const std::string& src)
{
    std::vector<FileModel> files;
    files.push_back(parseFile("t.cc", src));
    return files;
}

Summaries
summarize(const std::vector<FileModel>& files)
{
    GlobalModel g = buildGlobal(files);
    return propagate(buildCallGraph(files), g);
}

/** The rule engine's findings on a one-file program. */
std::vector<Finding>
check(const std::string& src)
{
    auto files = parseOne(src);
    GlobalModel g = buildGlobal(files);
    std::vector<Finding> out;
    runRules(files[0], g, propagate(buildCallGraph(files), g), out);
    return out;
}

bool
mentions(const Finding& f, const std::string& text)
{
    return f.message.find(text) != std::string::npos;
}

TEST(CallGraph, BuildsNodesAndReverseEdges)
{
    auto files = parseOne("void leaf();\n"
                          "void mid() { leaf(); }\n"
                          "void top() { mid(); leaf(); }\n");
    CallGraph cg = buildCallGraph(files);
    ASSERT_TRUE(cg.nodes.count("top"));
    EXPECT_TRUE(cg.nodes.at("top").callees.count("mid"));
    EXPECT_TRUE(cg.nodes.at("top").callees.count("leaf"));
    EXPECT_TRUE(cg.nodes.at("mid").hasBody);
    EXPECT_FALSE(cg.nodes.at("leaf").hasBody);
    ASSERT_TRUE(cg.callers.count("leaf"));
    EXPECT_TRUE(cg.callers.at("leaf").count("mid"));
    EXPECT_TRUE(cg.callers.at("leaf").count("top"));
}

TEST(CallGraph, SelfEdgesAreDropped)
{
    auto files = parseOne("void rec() { rec(); }\n");
    CallGraph cg = buildCallGraph(files);
    ASSERT_TRUE(cg.nodes.count("rec"));
    EXPECT_FALSE(cg.nodes.at("rec").callees.count("rec"));
}

TEST(CallGraph, YieldsPropagatesUpChainsWithWitness)
{
    auto files = parseOne("struct E { void block() AP_YIELDS; };\n"
                          "void a(E& e) { e.block(); }\n"
                          "void b(E& e) { a(e); }\n"
                          "void c(E& e) { b(e); }\n");
    Summaries s = summarize(files);
    EXPECT_TRUE(s.yields.count("a"));
    EXPECT_TRUE(s.yields.count("b"));
    EXPECT_TRUE(s.yields.count("c"));
    // The witness names the chain down to the declared yield point.
    ASSERT_TRUE(s.yieldsWitness.count("c"));
    EXPECT_NE(s.yieldsWitness.at("c").find("block"), std::string::npos);
}

TEST(CallGraph, DeclaredNoYieldStopsInference)
{
    auto files =
        parseOne("struct E { void block() AP_YIELDS; };\n"
                 "void guarded(E& e) AP_NO_YIELD { e.block(); }\n"
                 "void caller(E& e) { guarded(e); }\n");
    Summaries s = summarize(files);
    // `guarded` violates its own contract (a no-yield finding); the
    // declared boundary still stops the summary from leaking upward.
    EXPECT_FALSE(s.yields.count("guarded"));
    EXPECT_FALSE(s.yields.count("caller"));
}

TEST(CallGraph, ElectionIdiomStopsLeaderOnlyInference)
{
    auto files = parseOne(
        "struct C { void acquirePage(int n) AP_LEADER_ONLY; };\n"
        "void elected(C& c, unsigned m) {\n"
        "  unsigned b = ballot(m != 0);\n"
        "  int leader = ffs(b);\n"
        "  c.acquirePage(leader);\n"
        "}\n"
        "void blind(C& c) { c.acquirePage(0); }\n"
        "void outer(C& c) { blind(c); }\n");
    Summaries s = summarize(files);
    // The electing body absorbs the leader-only obligation...
    EXPECT_FALSE(s.leaderOnly.count("elected"));
    // ...while a body that just forwards the call inherits it.
    EXPECT_TRUE(s.leaderOnly.count("blind"));
    EXPECT_TRUE(s.leaderOnly.count("outer"));
}

TEST(CallGraph, AcquiresClosesTransitively)
{
    auto files = parseOne(
        "struct D { void grab() AP_ACQUIRES(\"pt.bucket\"); };\n"
        "void inner(D& d) { d.grab(); }\n"
        "void outer(D& d) { inner(d); }\n");
    Summaries s = summarize(files);
    ASSERT_TRUE(s.acquires.count("outer"));
    EXPECT_TRUE(s.acquires.at("outer").count("pt.bucket"));
}

TEST(CallGraph, PropagationDiagnosesInferredYieldInNoYieldBody)
{
    auto out = check("struct E { void block() AP_YIELDS; };\n"
                     "void helper(E& e) { e.block(); }\n"
                     "void spin(E& e) AP_NO_YIELD { helper(e); }\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "no-yield");
    EXPECT_EQ(out[0].line, 3);
    EXPECT_TRUE(mentions(out[0], "by inference (helper -> block)"))
        << out[0].message;
}

TEST(CallGraph, DeclaredContractsAreNotReReported)
{
    // One body breaks AP_NO_YIELD twice: directly through a declared
    // AP_YIELDS callee, and through a helper that yields by inference.
    // Each call site is one finding, and only the inferred one
    // carries a chain.
    auto out = check("struct E { void block() AP_YIELDS; };\n"
                     "void helper(E& e) { e.block(); }\n"
                     "void spin(E& e) AP_NO_YIELD {\n"
                     "  e.block();\n"
                     "  helper(e);\n"
                     "}\n");
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rule, "no-yield");
    EXPECT_EQ(out[0].line, 4);
    EXPECT_FALSE(mentions(out[0], "by inference")) << out[0].message;
    EXPECT_EQ(out[1].rule, "no-yield");
    EXPECT_EQ(out[1].line, 5);
    EXPECT_TRUE(mentions(out[1], "by inference (helper -> block)"))
        << out[1].message;
}

TEST(CallGraph, InferredYieldUnderAHeldLockIsNoYield)
{
    auto out = check("struct E { void block() AP_YIELDS; };\n"
                     "struct D { Lock bucket AP_LOCK_LEVEL(\"pt.bucket\"); };\n"
                     "void helper(E& e) { e.block(); }\n"
                     "void f(D& d, E& e) AP_ACQUIRES(\"pt.bucket\") {\n"
                     "  d.bucket.acquire();\n"
                     "  helper(e);\n"
                     "  d.bucket.release();\n"
                     "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "no-yield");
    EXPECT_EQ(out[0].line, 6);
    EXPECT_TRUE(mentions(out[0], "by inference (helper -> block)"))
        << out[0].message;
    EXPECT_TRUE(mentions(out[0], "'pt.bucket'")) << out[0].message;
}

TEST(CallGraph, InferredAcquireUnderAHeldLockIsLockOrder)
{
    auto out = check(
        "const char* kLockOrder[] = {\"tlb.entry\", \"pt.bucket\"};\n"
        "struct T { void grab() AP_ACQUIRES(\"tlb.entry\"); };\n"
        "struct D { Lock bucket AP_LOCK_LEVEL(\"pt.bucket\"); };\n"
        "void helper(T& t) { t.grab(); }\n"
        "void f(D& d, T& t) AP_ACQUIRES(\"pt.bucket\") {\n"
        "  d.bucket.acquire();\n"
        "  helper(t);\n"
        "  d.bucket.release();\n"
        "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "lock-order");
    EXPECT_EQ(out[0].line, 7);
    EXPECT_TRUE(mentions(out[0], "'tlb.entry' by inference (helper -> "
                                 "grab) while 'pt.bucket' is held"))
        << out[0].message;
}

TEST(CallGraph, InferredLockstepUnderALaneGuardIsDivergence)
{
    auto out = check("struct V { void read(int i) AP_LOCKSTEP; };\n"
                     "void helper(V& v) { v.read(0); }\n"
                     "void f(V& v, int lane) {\n"
                     "  if (lane == 0)\n"
                     "    helper(v);\n"
                     "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "lockstep-divergence");
    EXPECT_EQ(out[0].line, 5);
    EXPECT_TRUE(mentions(out[0], "by inference (helper -> read)"))
        << out[0].message;
}

TEST(CallGraph, InferredLeaderOnlyWithoutElectionIsLeaderOnly)
{
    // The helper breaks the declared contract itself; its caller,
    // which elects no leader either, breaks the inferred one.
    auto out =
        check("struct C { void acquirePage(int n) AP_LEADER_ONLY; };\n"
              "void helper(C& c) { c.acquirePage(0); }\n"
              "void f(C& c) { helper(c); }\n");
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rule, "leader-only");
    EXPECT_EQ(out[0].line, 2);
    EXPECT_FALSE(mentions(out[0], "by inference")) << out[0].message;
    EXPECT_EQ(out[1].rule, "leader-only");
    EXPECT_EQ(out[1].line, 3);
    EXPECT_TRUE(mentions(out[1], "by inference (helper -> acquirePage)"))
        << out[1].message;
}

} // namespace
} // namespace ap::lint
