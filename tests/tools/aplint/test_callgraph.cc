/**
 * @file
 * Unit tests for the whole-program layer: call-graph construction,
 * bottom-up contract propagation (yields / leader-only / acquires),
 * the declared boundaries that stop inference, and the witness chains
 * attached to each inferred summary.
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
    // `guarded` violates its own contract (v1's finding); the declared
    // boundary still stops the summary from leaking upward.
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
    auto files = parseOne("struct E { void block() AP_YIELDS; };\n"
                          "void helper(E& e) { e.block(); }\n"
                          "void spin(E& e) AP_NO_YIELD { helper(e); }\n");
    GlobalModel g = buildGlobal(files);
    CallGraph cg = buildCallGraph(files);
    Summaries s = propagate(cg, g);
    std::vector<Finding> out;
    runPropagation(files[0], g, cg, s, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "contract-propagation");
    EXPECT_NE(out[0].message.find("helper"), std::string::npos);
}

TEST(CallGraph, DeclaredContractsAreNotReReported)
{
    // A direct call to a declared-AP_YIELDS callee inside AP_NO_YIELD
    // is v1's finding; the propagation pass must stay silent so no
    // call site is diagnosed twice.
    auto files = parseOne("struct E { void block() AP_YIELDS; };\n"
                          "void spin(E& e) AP_NO_YIELD { e.block(); }\n");
    GlobalModel g = buildGlobal(files);
    CallGraph cg = buildCallGraph(files);
    Summaries s = propagate(cg, g);
    std::vector<Finding> out;
    runPropagation(files[0], g, cg, s, out);
    EXPECT_TRUE(out.empty());
}

} // namespace
} // namespace ap::lint
