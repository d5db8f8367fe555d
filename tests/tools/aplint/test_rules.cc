/**
 * @file
 * Fixture tests for the aplint rule engine: every rule has a negative
 * fixture that must produce exactly its rule id (and nothing else) and
 * a positive fixture that must lint clean. The fixtures live under
 * tests/tools/aplint/fixtures/ and are lint fodder, not compiled code;
 * the tree-wide self-host scan excludes them.
 */

#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "driver.hh"

namespace ap::lint {
namespace {

Report
lintFixture(const std::string& name)
{
    Options opts;
    opts.root = APLINT_FIXTURE_DIR;
    opts.paths = {name};
    return analyze(opts);
}

/** Every finding carries @p rule, and there are @p count of them. */
void
expectExactly(const Report& r, const std::string& rule, size_t count)
{
    EXPECT_EQ(r.findings.size(), count) << toText(r);
    for (const Finding& f : r.findings)
        EXPECT_EQ(f.rule, rule) << toText(r);
    EXPECT_EQ(r.unwaivedCount(), count);
}

void
expectClean(const Report& r)
{
    EXPECT_EQ(r.unwaivedCount(), 0u) << toText(r);
    EXPECT_TRUE(r.findings.empty()) << toText(r);
}

TEST(Rules, LeaderOnly)
{
    expectExactly(lintFixture("bad_leader_only.cc"), "leader-only", 1);
    expectClean(lintFixture("good_leader_only.cc"));
}

TEST(Rules, LockstepDivergence)
{
    expectExactly(lintFixture("bad_lockstep_divergence.cc"),
                  "lockstep-divergence", 1);
    expectClean(lintFixture("good_lockstep_divergence.cc"));
}

TEST(Rules, NoYield)
{
    expectExactly(lintFixture("bad_no_yield.cc"), "no-yield", 2);
    expectClean(lintFixture("good_no_yield.cc"));
}

TEST(Rules, LockOrder)
{
    expectExactly(lintFixture("bad_lock_order.cc"), "lock-order", 3);
    expectClean(lintFixture("good_lock_order.cc"));
}

TEST(Rules, LockOrderIsReadFromTheTable)
{
    // The same nesting flips from clean to a finding when two
    // kLockOrder entries swap: the table is the order's declaration.
    std::ifstream is(std::string(APLINT_FIXTURE_DIR) +
                     "/good_lock_order.cc");
    std::stringstream ss;
    ss << is.rdbuf();
    std::string src = ss.str();
    auto lint = [](const std::string& text) {
        std::vector<FileModel> files{parseFile("t.cc", text)};
        GlobalModel g = buildGlobal(files);
        std::vector<Finding> out;
        runRules(files[0], g, out);
        return out;
    };
    EXPECT_TRUE(lint(src).empty());

    const std::string ordered = "{\"tlb.entry\", \"pt.bucket\",";
    const size_t at = src.find(ordered);
    ASSERT_NE(at, std::string::npos);
    src.replace(at, ordered.size(), "{\"pt.bucket\", \"tlb.entry\",");
    std::vector<Finding> out = lint(src);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rule, "lock-order");
    EXPECT_NE(out[0].message.find("violates the declared order"),
              std::string::npos)
        << out[0].message;
}

TEST(Rules, TransitionDeclReadsTheTable)
{
    // An AP_TRANSITIONS edge missing from the fixture's own
    // kPteStateMachine table is a finding, beside a malformed edge
    // and an empty list.
    Report r = lintFixture("bad_transition_decl.cc");
    expectExactly(r, "transition-decl", 3);
    EXPECT_NE(toText(r).find("'Ready->Loading' on unregistered is not an "
                             "edge of the registered PteState machine"),
              std::string::npos)
        << toText(r);
    expectClean(lintFixture("good_transition_decl.cc"));
}

TEST(Rules, LinkedEscape)
{
    expectExactly(lintFixture("bad_linked_escape.cc"), "linked-escape",
                  2);
    expectClean(lintFixture("good_linked_escape.cc"));
}

TEST(Rules, AssertSideEffect)
{
    expectExactly(lintFixture("bad_assert_side_effect.cc"),
                  "assert-side-effect", 2);
    expectClean(lintFixture("good_assert_side_effect.cc"));
}

TEST(Rules, WaiverSyntax)
{
    expectExactly(lintFixture("bad_waiver_syntax.cc"), "waiver-syntax",
                  2);
}

TEST(Rules, WellFormedWaiverSuppressesTheFinding)
{
    Report r = lintFixture("good_waiver.cc");
    EXPECT_EQ(r.unwaivedCount(), 0u) << toText(r);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].rule, "leader-only");
    EXPECT_TRUE(r.findings[0].waived);
}

TEST(Rules, MustCheckStatus)
{
    // Dropped at the call site, overwritten unread, out of scope
    // unread, and unread on an early-return and on a break path (the
    // jump kills the path before the later read) — one finding per
    // loss.
    expectExactly(lintFixture("bad_must_check_status.cc"),
                  "must-check-status", 5);
    expectClean(lintFixture("good_must_check_status.cc"));
}

TEST(Rules, LinkedEscapeV2)
{
    // Variable-mediated flows: return via local, member store via
    // local, use after a yielding call, use after unlink.
    expectExactly(lintFixture("bad_linked_escape_v2.cc"),
                  "linked-escape-v2", 4);
    expectClean(lintFixture("good_linked_escape_v2.cc"));
}

TEST(Rules, ContractPropagation)
{
    // One- and two-hop inferred-yields chains inside AP_NO_YIELD
    // bodies; the declared AP_NO_YIELD boundary keeps the good
    // fixture clean.
    expectExactly(lintFixture("bad_contract_propagation.cc"),
                  "contract-propagation", 2);
    expectClean(lintFixture("good_contract_propagation.cc"));
}

TEST(Rules, UnusedWaiverIsANoteByDefault)
{
    Report r = lintFixture("bad_unused_waiver.cc");
    ASSERT_EQ(r.findings.size(), 1u) << toText(r);
    EXPECT_EQ(r.findings[0].rule, "unused-waiver");
    EXPECT_TRUE(r.findings[0].note);
    EXPECT_EQ(r.unwaivedCount(), 0u);
    EXPECT_EQ(r.noteCount(), 1u);
}

TEST(Rules, StrictWaiversPromotesUnusedWaiverToError)
{
    Options opts;
    opts.root = APLINT_FIXTURE_DIR;
    opts.paths = {"bad_unused_waiver.cc"};
    opts.strictWaivers = true;
    Report r = analyze(opts);
    ASSERT_EQ(r.findings.size(), 1u) << toText(r);
    EXPECT_EQ(r.findings[0].rule, "unused-waiver");
    EXPECT_FALSE(r.findings[0].note);
    EXPECT_EQ(r.unwaivedCount(), 1u);
}

TEST(Rules, UsedWaiverIsNotReportedUnused)
{
    Options opts;
    opts.root = APLINT_FIXTURE_DIR;
    opts.paths = {"good_unused_waiver.cc"};
    opts.strictWaivers = true;
    Report r = analyze(opts);
    EXPECT_EQ(r.unwaivedCount(), 0u) << toText(r);
    EXPECT_EQ(r.noteCount(), 0u);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_TRUE(r.findings[0].waived);
}

TEST(Rules, EveryKnownRuleHasANegativeFixture)
{
    // The fixture set exercises the full rule catalog: losing a
    // fixture (or adding a rule without one) fails here.
    std::set<std::string> covered;
    for (const char* fx :
         {"bad_leader_only.cc", "bad_lockstep_divergence.cc",
          "bad_no_yield.cc", "bad_lock_order.cc",
          "bad_linked_escape.cc", "bad_assert_side_effect.cc",
          "bad_waiver_syntax.cc", "bad_must_check_status.cc",
          "bad_linked_escape_v2.cc", "bad_contract_propagation.cc",
          "bad_unused_waiver.cc", "bad_ref_balance.cc",
          "bad_state_edge.cc", "bad_transition_decl.cc"}) {
        for (const Finding& f : lintFixture(fx).findings)
            covered.insert(f.rule);
    }
    EXPECT_EQ(covered, knownRules());
}

TEST(Rules, JsonReportCarriesRuleAndWaiverState)
{
    Report r = lintFixture("good_waiver.cc");
    std::string js = toJson(r);
    EXPECT_NE(js.find("\"rule\": \"leader-only\""), std::string::npos);
    EXPECT_NE(js.find("\"waived\": true"), std::string::npos);
    EXPECT_NE(js.find("\"unwaived\": 0"), std::string::npos);
}

} // namespace
} // namespace ap::lint
