/**
 * @file
 * Unit tests for the flow-sensitive dataflow pass: the status lattice
 * (branch join is must-read-on-all-paths, loops are widened by a
 * second pass), the linked-pointer staleness lattice, the baseline
 * gate round-trip, and a mutation check against the real
 * src/gpufs/page_cache.cc writeback path — deleting its status
 * inspection must make must-check-status fire.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "callgraph.hh"
#include "dataflow.hh"
#include "driver.hh"
#include "parser.hh"

namespace ap::lint {
namespace {

std::vector<Finding>
flow(const std::string& src)
{
    std::vector<FileModel> files;
    files.push_back(parseFile("t.cc", src));
    GlobalModel g = buildGlobal(files);
    std::vector<Finding> out;
    runDataflow(files[0], g, nullptr, out);
    return out;
}

TEST(Dataflow, BranchJoinRequiresReadOnBothArms)
{
    // Read on only the then-arm: the else path drops the status, so
    // the join is unread and the scope exit reports it.
    auto out = flow("struct Io { IoStatus poll() AP_MUST_CHECK; };\n"
                    "int f(Io& io, bool c) {\n"
                    "  IoStatus st = io.poll();\n"
                    "  if (c)\n"
                    "    return st == IoStatus::Ok ? 1 : 0;\n"
                    "  return 0;\n"
                    "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "must-check-status");

    // Read on both arms joins to read: clean.
    EXPECT_TRUE(flow("struct Io { IoStatus poll() AP_MUST_CHECK; };\n"
                     "int f(Io& io, bool c) {\n"
                     "  IoStatus st = io.poll();\n"
                     "  if (c)\n"
                     "    return st == IoStatus::Ok ? 1 : 0;\n"
                     "  return st == IoStatus::Eof ? 2 : 3;\n"
                     "}\n")
                    .empty());
}

TEST(Dataflow, LoopConditionAssignCountsAsRead)
{
    EXPECT_TRUE(flow("struct Io { IoStatus poll() AP_MUST_CHECK; };\n"
                     "void f(Io& io) {\n"
                     "  IoStatus st = io.poll();\n"
                     "  while ((st = io.poll()) != IoStatus::Ok)\n"
                     "    spin();\n"
                     "}\n")
                    .empty());
}

TEST(Dataflow, LoopWideningCatchesYieldOnBackEdge)
{
    // First iteration uses q before the yield; the widened second
    // pass sees the use with the staleness carried over the back
    // edge.
    auto out = flow(
        "struct P { const int* linkedFramePtr(int l) "
        "AP_REQUIRES_LINKED; };\n"
        "struct E { void block() AP_YIELDS; };\n"
        "int f(P& p, E& e, int n) {\n"
        "  int acc = 0;\n"
        "  const int* q = p.linkedFramePtr(0);\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    acc += consume(q);\n"
        "    e.block();\n"
        "  }\n"
        "  return acc;\n"
        "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "linked-escape");
    EXPECT_NE(out[0].message.find("block"), std::string::npos);

    // Relinking inside the loop before the use keeps it fresh: clean.
    EXPECT_TRUE(flow("struct P { const int* linkedFramePtr(int l) "
                     "AP_REQUIRES_LINKED; };\n"
                     "struct E { void block() AP_YIELDS; };\n"
                     "int f(P& p, E& e, int n) {\n"
                     "  int acc = 0;\n"
                     "  for (int i = 0; i < n; ++i) {\n"
                     "    const int* q = p.linkedFramePtr(0);\n"
                     "    acc += consume(q);\n"
                     "    e.block();\n"
                     "  }\n"
                     "  return acc;\n"
                     "}\n")
                    .empty());
}

TEST(Dataflow, CapturedStatusAssignedInLambdaIsSeenOutside)
{
    // The `launch([&]{ st = io(...); })` harness idiom: the lambda
    // assigns a captured local that the enclosing scope inspects.
    EXPECT_TRUE(flow("struct Io { IoStatus poll() AP_MUST_CHECK; };\n"
                     "bool f(Io& io, Dev& dev) {\n"
                     "  IoStatus st = IoStatus::Ok;\n"
                     "  dev.launch(1, 1, [&](Warp& w) {\n"
                     "    st = io.poll();\n"
                     "  });\n"
                     "  return st == IoStatus::Ok;\n"
                     "}\n")
                    .empty());

    // A status produced and dropped wholly inside the lambda still
    // fires.
    auto out = flow("struct Io { IoStatus poll() AP_MUST_CHECK; };\n"
                    "void f(Io& io, Dev& dev) {\n"
                    "  dev.launch(1, 1, [&](Warp& w) {\n"
                    "    io.poll();\n"
                    "  });\n"
                    "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "must-check-status");
}

TEST(Dataflow, BaselineRoundTripTolerantOfOldFindings)
{
    Options opts;
    opts.root = APLINT_FIXTURE_DIR;
    opts.paths = {"bad_leader_only.cc"};
    Report first = analyze(opts);
    ASSERT_EQ(first.unwaivedCount(), 1u) << toText(first);

    const std::string path =
        testing::TempDir() + "/aplint_baseline_test.json";
    {
        std::ofstream os(path);
        os << toBaseline(first);
    }

    opts.baselinePath = path;
    Report second = analyze(opts);
    EXPECT_EQ(second.unwaivedCount(), 0u) << toText(second);
    EXPECT_EQ(second.baselinedCount(), 1u);
}

TEST(Dataflow, BaselineDoesNotMaskNewFindings)
{
    Options opts;
    opts.root = APLINT_FIXTURE_DIR;
    opts.paths = {"bad_leader_only.cc"};
    const std::string path =
        testing::TempDir() + "/aplint_baseline_other.json";
    {
        std::ofstream os(path);
        os << toBaseline(analyze(opts));
    }

    // A different file's findings are not in the baseline and must
    // still fail.
    opts.paths = {"bad_no_yield.cc"};
    opts.baselinePath = path;
    Report r = analyze(opts);
    EXPECT_EQ(r.unwaivedCount(), 2u) << toText(r);
    EXPECT_EQ(r.baselinedCount(), 0u);
}

/** Slurp a file under the repo source tree. */
std::string
readSource(const std::string& rel)
{
    std::ifstream is(std::string(APLINT_SOURCE_DIR) + "/" + rel);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * Delete the writeback status inspection — the `if (st != ...Ok)
 * {...}` block right after the io->writeFromGpu call — by balanced
 * brace surgery, returning the mutated source.
 */
std::string
dropWritebackCheck(const std::string& src)
{
    size_t call = src.find("io->writeFromGpu");
    EXPECT_NE(call, std::string::npos);
    size_t iff = src.find("if (st != hostio::IoStatus::Ok)", call);
    EXPECT_NE(iff, std::string::npos);
    size_t open = src.find('{', iff);
    int depth = 1;
    size_t i = open + 1;
    while (i < src.size() && depth > 0) {
        if (src[i] == '{')
            ++depth;
        else if (src[i] == '}')
            --depth;
        ++i;
    }
    return src.substr(0, iff) + src.substr(i);
}

TEST(Dataflow, MutationDroppingWritebackInspectionFires)
{
    std::string orig = readSource("src/gpufs/page_cache.cc");
    ASSERT_FALSE(orig.empty());

    auto lintSrc = [](const std::string& src) {
        std::vector<FileModel> files;
        files.push_back(parseFile("page_cache.cc", src));
        GlobalModel g = buildGlobal(files);
        std::vector<Finding> out;
        runDataflow(files[0], g, nullptr, out);
        size_t n = 0;
        for (const Finding& f : out)
            if (f.rule == "must-check-status")
                ++n;
        return n;
    };

    // The shipped code inspects the writeback status: clean.
    EXPECT_EQ(lintSrc(orig), 0u);
    // Deleting the inspection makes the rule fire.
    EXPECT_GE(lintSrc(dropWritebackCheck(orig)), 1u);
}

} // namespace
} // namespace ap::lint
