/**
 * @file
 * Unit tests for the typestate verification layer: the net-refcount
 * interval lattice (branch join, loop widening, the conditional
 * acquire / bound-result / raw-CAS idioms), interprocedural effect
 * summaries with witness chains, the SARIF output mode, the parse
 * cache, and three mutation checks against the real
 * src/gpufs/page_cache.cc — deleting the staging release on
 * fetchPage's error path must make ref-balance fire, and deleting
 * publishError's Error or publishReady's Ready publication must make
 * state-edge fire.
 * The strict self-host scan doubles as the "found nothing, and must
 * keep finding nothing" gate with a wall-time budget.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "callgraph.hh"
#include "driver.hh"
#include "parser.hh"
#include "typestate.hh"

namespace ap::lint {
namespace {

std::vector<Finding>
ts(const std::string& src)
{
    std::vector<FileModel> files;
    files.push_back(parseFile("t.cc", src));
    std::vector<Finding> sink;
    GlobalModel g = buildGlobal(files, sink);
    std::vector<Finding> out;
    runTypestate(files[0], g, nullptr, out);
    return out;
}

constexpr const char* kCacheDecl =
    "struct Cache {\n"
    "  bool tryRef(int n) AP_ACQUIRES_REF(\"pc.page\");\n"
    "  void dropRef(int n) AP_RELEASES_REF(\"pc.page\");\n"
    "};\n";

TEST(Typestate, IntervalLattice)
{
    EXPECT_EQ(joinIv({0, 0}, {1, 1}), (Interval{0, 1}));
    EXPECT_EQ(joinIv({-1, -1}, {-1, -1}), (Interval{-1, -1}));
    EXPECT_EQ(addIv({0, 1}, {1, 1}), (Interval{1, 2}));
    EXPECT_EQ(addIv({0, Interval::kInf}, {1, 1}).hi, Interval::kInf);
    EXPECT_EQ(ivText({1, 1}), "+1");
    EXPECT_EQ(ivText({-1, 0}), "[-1,0]");
    EXPECT_EQ(ivText({0, Interval::kInf}), "[0,+inf]");
}

TEST(Typestate, BalancedEarlyReturnLeakFires)
{
    auto out = ts(std::string(kCacheDecl) +
                  "int f(Cache& c, bool fail) AP_BALANCED {\n"
                  "  if (!c.tryRef(1))\n"
                  "    return -1;\n"
                  "  if (fail)\n"
                  "    return -2;\n"
                  "  c.dropRef(1);\n"
                  "  return 0;\n"
                  "}\n");
    ASSERT_EQ(out.size(), 1u) << out.size();
    EXPECT_EQ(out[0].rule, "ref-balance");
    EXPECT_NE(out[0].message.find("+1"), std::string::npos);
    EXPECT_EQ(out[0].line, 9); // the leaking return
}

TEST(Typestate, ConditionalAcquireIdiomIsPathSensitive)
{
    // `if (!acq())` puts the +1 only in the success world; releasing
    // there balances every path.
    EXPECT_TRUE(ts(std::string(kCacheDecl) +
                   "int f(Cache& c) AP_BALANCED {\n"
                   "  if (!c.tryRef(1))\n"
                   "    return -1;\n"
                   "  c.dropRef(1);\n"
                   "  return 0;\n"
                   "}\n")
                    .empty());
    // Un-negated form: the then-arm holds the reference.
    EXPECT_TRUE(ts(std::string(kCacheDecl) +
                   "void f(Cache& c) AP_BALANCED {\n"
                   "  if (c.tryRef(1))\n"
                   "    c.dropRef(1);\n"
                   "}\n")
                    .empty());
}

TEST(Typestate, BoundResultOkIdiom)
{
    // The gmmap shape: bind the acquire result, bail on !ok() — the
    // failure world hands the reference back.
    EXPECT_TRUE(
        ts("struct Cache {\n"
           "  AcquireResult acquirePage(int n) "
           "AP_ACQUIRES_REF(\"pc.page\");\n"
           "  void releasePage(int n) AP_RELEASES_REF(\"pc.page\");\n"
           "};\n"
           "int f(Cache& c) AP_BALANCED {\n"
           "  AcquireResult r = c.acquirePage(1);\n"
           "  if (!r.ok())\n"
           "    return -1;\n"
           "  c.releasePage(1);\n"
           "  return 0;\n"
           "}\n")
            .empty());
}

TEST(Typestate, RawCasIdiom)
{
    // The pteTryRefAdd shape: atomicCas(a, rc, rc + n) == rc takes
    // the references only in the success comparison's world.
    EXPECT_TRUE(
        ts("bool tryRef(W& w, long rca, int count) "
           "AP_ACQUIRES_REF(\"pc.page\") {\n"
           "  for (int s = 0; s < 64; ++s) {\n"
           "    int rc = loadRc(rca);\n"
           "    if (rc < 0)\n"
           "      return false;\n"
           "    if (w.atomicCas(rca, rc, rc + count) == rc)\n"
           "      return true;\n"
           "  }\n"
           "  return false;\n"
           "}\n")
            .empty());
    // An eviction claim (rca, 0, -1) is outside the idiom's shape
    // and must NOT count as a release.
    EXPECT_TRUE(ts("void claim(W& w, long rca) {\n"
                   "  if (w.atomicCas(rca, 0, -1) == 0)\n"
                   "    touch();\n"
                   "}\n")
                    .empty());
}

TEST(Typestate, LoopWideningCatchesUnboundedAcquire)
{
    auto out = ts(std::string(kCacheDecl) +
                  "void f(Cache& c, int n) AP_BALANCED {\n"
                  "  for (int i = 0; i < n; ++i)\n"
                  "    c.tryRef(1);\n"
                  "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "ref-balance");
    EXPECT_NE(out[0].message.find("+inf"), std::string::npos);
}

TEST(Typestate, SwitchCasesAreAlternativesNotASequence)
{
    // Each case is entered from the switch head: one release per case
    // nets -1 on every path, not -2.
    EXPECT_TRUE(ts(std::string(kCacheDecl) +
                   "void f(Cache& c, int k) "
                   "AP_RELEASES_REF(\"pc.page\") {\n"
                   "  switch (k) {\n"
                   "  case 0:\n"
                   "    c.dropRef(0);\n"
                   "    break;\n"
                   "  default:\n"
                   "    c.dropRef(1);\n"
                   "    break;\n"
                   "  }\n"
                   "}\n")
                    .empty());
    // Without a default the head reaches the exit untouched: [-1,0].
    auto out = ts(std::string(kCacheDecl) +
                  "void f(Cache& c, int k) "
                  "AP_RELEASES_REF(\"pc.page\") {\n"
                  "  switch (k) {\n"
                  "  case 0:\n"
                  "    c.dropRef(0);\n"
                  "    break;\n"
                  "  }\n"
                  "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].message.find("[-1,0]"), std::string::npos)
        << out[0].message;
}

TEST(Typestate, ReleaseBodiesMustNetExactlyMinusOne)
{
    // A conditional drop nets [-1,0]: not a faithful release.
    auto out = ts(std::string(kCacheDecl) +
                  "void bad(Cache& c, bool x) "
                  "AP_RELEASES_REF(\"pc.page\") {\n"
                  "  if (x)\n"
                  "    c.dropRef(1);\n"
                  "}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "ref-balance");
    EXPECT_NE(out[0].message.find("[-1,0]"), std::string::npos);

    // An event-free body is a trusted leaf boundary (the
    // releaseStagingSlot handoff shape): no finding even with an
    // early return.
    EXPECT_TRUE(ts("void releaseSlot(int s) "
                   "AP_RELEASES_REF(\"pc.staging\") {\n"
                   "  if (s > 0)\n"
                   "    return;\n"
                   "  give(s);\n"
                   "}\n")
                    .empty());
}

TEST(Typestate, WitnessChainNamesTheLeakingHelpers)
{
    std::vector<FileModel> files;
    files.push_back(parseFile(
        "t.cc", std::string(kCacheDecl) +
                    "void helper2(Cache& c) { c.tryRef(1); }\n"
                    "void helper1(Cache& c) { helper2(c); }\n"
                    "void f(Cache& c) AP_BALANCED { helper1(c); }\n"));
    std::vector<Finding> sink;
    GlobalModel g = buildGlobal(files, sink);
    CallGraph cg = buildCallGraph(files);
    Summaries sums = propagate(cg, g);
    computeRefSummaries(files, g, cg, sums);
    ASSERT_TRUE(sums.refEffects.count("helper1"));
    EXPECT_EQ(sums.refEffects["helper1"]["pc.page"], (Interval{1, 1}));

    std::vector<Finding> out;
    runTypestate(files[0], g, &sums, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "ref-balance");
    EXPECT_NE(out[0].message.find("helper1 -> helper2"),
              std::string::npos)
        << out[0].message;
}

TEST(Typestate, TransitionClosurePropagatesThroughCallGraph)
{
    std::vector<FileModel> files;
    files.push_back(parseFile(
        "t.cc",
        "// aplint: pte-edges: Loading->Ready\n"
        "struct E { unsigned state; };\n"
        "void pub(E* e) AP_TRANSITIONS(\"Loading->Ready\") {\n"
        "  e->state = PteState::Ready;\n"
        "}\n"
        "void mid(E* e) { pub(e); }\n"
        "void top(E* e) AP_TRANSITIONS(\"Loading->Ready\") {\n"
        "  mid(e);\n"
        "}\n"));
    std::vector<Finding> sink;
    GlobalModel g = buildGlobal(files, sink);
    CallGraph cg = buildCallGraph(files);
    Summaries sums = propagate(cg, g);
    computeRefSummaries(files, g, cg, sums);
    // top's declared edge is witnessed two hops down through mid.
    EXPECT_TRUE(sums.transitions["mid"].count("Loading->Ready"));
    std::vector<Finding> out;
    runTypestate(files[0], g, &sums, out);
    EXPECT_TRUE(out.empty()) << out[0].message;
}

// ---- the real tree -----------------------------------------------------

std::string
readSource(const std::string& rel)
{
    std::ifstream is(std::string(APLINT_SOURCE_DIR) + "/" + rel);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Lint page_cache.{hh,cc} together; count @p rule findings in the .cc. */
size_t
lintPageCache(const std::string& hh, const std::string& cc,
              const std::string& rule)
{
    std::vector<FileModel> files;
    files.push_back(parseFile("page_cache.hh", hh));
    files.push_back(parseFile("page_cache.cc", cc));
    std::vector<Finding> sink;
    GlobalModel g = buildGlobal(files, sink);
    CallGraph cg = buildCallGraph(files);
    Summaries sums = propagate(cg, g);
    computeRefSummaries(files, g, cg, sums);
    std::vector<Finding> out;
    runTypestate(files[1], g, &sums, out);
    size_t n = 0;
    for (const Finding& f : out)
        if (f.rule == rule)
            ++n;
    return n;
}

TEST(Typestate, MutationDroppingStagingReleaseFiresRefBalance)
{
    std::string hh = readSource("src/gpufs/page_cache.hh");
    std::string cc = readSource("src/gpufs/page_cache.cc");
    ASSERT_FALSE(hh.empty());
    ASSERT_FALSE(cc.empty());

    // The shipped error path hands the staging slot back: clean.
    EXPECT_EQ(lintPageCache(hh, cc, "ref-balance"), 0u);

    // Delete the first releaseStagingSlot call after fetchPage's
    // definition — the early-return transfer-failure path now leaks
    // the slot, and AP_BALANCED must catch it.
    size_t fn = cc.find("PageCache::fetchPage");
    ASSERT_NE(fn, std::string::npos);
    size_t call = cc.find("releaseStagingSlot(w, slot);", fn);
    ASSERT_NE(call, std::string::npos);
    std::string mutated = cc;
    mutated.erase(call, std::string("releaseStagingSlot(w, slot);").size());
    EXPECT_GE(lintPageCache(hh, mutated, "ref-balance"), 1u);
}

/**
 * @p cc with the braced block around the first @p literal after @p fn
 * erased, or empty if either is missing.
 */
std::string
dropBlock(const std::string& cc, const std::string& fn,
          const std::string& literal)
{
    size_t at = cc.find(fn);
    if (at == std::string::npos)
        return "";
    size_t lit = cc.find(literal, at);
    if (lit == std::string::npos)
        return "";
    size_t open = cc.rfind('{', lit);
    size_t close = cc.find('}', lit);
    if (open == std::string::npos || close == std::string::npos)
        return "";
    std::string mutated = cc;
    mutated.erase(open, close - open + 1);
    return mutated;
}

TEST(Typestate, MutationDroppingErrorPublicationFiresStateEdge)
{
    std::string hh = readSource("src/gpufs/page_cache.hh");
    std::string cc = readSource("src/gpufs/page_cache.cc");
    ASSERT_FALSE(hh.empty());
    ASSERT_FALSE(cc.empty());

    EXPECT_EQ(lintPageCache(hh, cc, "state-edge"), 0u);

    // Delete the block that stores PteState::Error in publishError —
    // its declared Loading->Error edge is now unwitnessed.
    std::string mutated = dropBlock(cc, "PageCache::publishError",
                                    "static_cast<uint32_t>(PteState::Error)");
    ASSERT_FALSE(mutated.empty());
    EXPECT_GE(lintPageCache(hh, mutated, "state-edge"), 1u);
}

TEST(Typestate, MutationDroppingReadyPublicationFiresStateEdge)
{
    std::string hh = readSource("src/gpufs/page_cache.hh");
    std::string cc = readSource("src/gpufs/page_cache.cc");
    ASSERT_FALSE(hh.empty());
    ASSERT_FALSE(cc.empty());

    // The twin: without publishReady's store its declared
    // Loading->Ready edge is unwitnessed.
    std::string mutated = dropBlock(cc, "PageCache::publishReady",
                                    "static_cast<uint32_t>(PteState::Ready)");
    ASSERT_FALSE(mutated.empty());
    EXPECT_GE(lintPageCache(hh, mutated, "state-edge"), 1u);
}

TEST(Typestate, SelfhostStrictFindsNothingWithinBudget)
{
    // The whole tree, baseline-free and strict: the typestate layer
    // must report nothing on shipped code — and stay fast enough to
    // run as a tier-1 gate.
    Options opts;
    opts.root = APLINT_SOURCE_DIR;
    opts.excludes = {"tests/tools/aplint/fixtures"};
    opts.strictWaivers = true;
    Report r = analyze(opts);
    EXPECT_EQ(r.unwaivedCount(), 0) << toText(r);
    EXPECT_EQ(r.baselinedCount(), 0);
    EXPECT_GT(r.filesScanned, 100);
    EXPECT_LT(r.totalMillis, 60000.0) << "selfhost wall-time budget";
}

TEST(Typestate, EdgeTableInAnnotationsHeaderMatchesItsDirective)
{
    // The committed kPteStateMachine initializer and its adjacent
    // pte-edges directive must agree (the drift diagnostic stays
    // silent on the real header).
    Options opts;
    opts.root = APLINT_SOURCE_DIR;
    opts.paths = {"src/util/annotations.hh"};
    Report r = analyze(opts);
    EXPECT_EQ(r.unwaivedCount(), 0) << toText(r);
}

// ---- output modes and the parse cache ----------------------------------

TEST(Typestate, SarifRoundTripCarriesEveryGatingFinding)
{
    Options opts;
    opts.root = APLINT_FIXTURE_DIR;
    opts.paths = {"bad_ref_balance.cc"};
    Report r = analyze(opts);
    ASSERT_EQ(r.findings.size(), 2u) << toText(r);

    std::string sarif = toSarif(r);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"aplint\""), std::string::npos);
    // every known rule is advertised in the driver's rule table
    for (const std::string& rule : knownRules())
        EXPECT_NE(sarif.find("{\"id\": \"" + rule + "\"}"),
                  std::string::npos)
            << rule;
    // and every gating finding round-trips with rule, file, and line
    size_t results = 0;
    for (const Finding& f : r.findings) {
        if (f.waived || f.baselined)
            continue;
        ++results;
        EXPECT_NE(sarif.find("\"ruleId\": \"" + f.rule + "\""),
                  std::string::npos);
        EXPECT_NE(sarif.find("\"uri\": \"" + f.file + "\""),
                  std::string::npos);
        EXPECT_NE(sarif.find("\"startLine\": " +
                             std::to_string(f.line)),
                  std::string::npos);
    }
    size_t count = 0;
    for (size_t p = sarif.find("\"ruleId\""); p != std::string::npos;
         p = sarif.find("\"ruleId\"", p + 1))
        ++count;
    EXPECT_EQ(count, results);
    // waived/baselined findings must NOT appear as results
    EXPECT_EQ(sarif.find("\"level\": \"warning\""), std::string::npos);
}

TEST(Typestate, ParseCacheServesRepeatScans)
{
    Options opts;
    opts.root = APLINT_FIXTURE_DIR;
    opts.paths = {"good_ref_balance.cc"};
    Report first = analyze(opts);
    Report second = analyze(opts);
    EXPECT_EQ(second.cacheHits, second.filesScanned);
    EXPECT_EQ(first.findings.size(), second.findings.size());
}

} // namespace
} // namespace ap::lint
