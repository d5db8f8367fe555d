#include "dataflow.hh"

#include "absint.hh"

#include <map>
#include <set>
#include <string>

namespace ap::lint {

namespace {

/** Abstract value of one tracked local. */
struct VarState
{
    bool isStatus = false; ///< must-check result
    bool isLinked = false; ///< linked raw pointer
    std::string origin;    ///< producing callee
    std::string receiver;  ///< producer's receiver object (linked)
    int declLine = 0;
    int depth = 0;         ///< scope depth where tracking started
    bool read = false;     ///< status: inspected on this path
    bool stale = false;    ///< linked: link gone on this path
    int staleLine = 0;
    std::string staleWhy;
};

using State = std::map<std::string, VarState>;

/** Unlink operations that invalidate a receiver's linked frames. */
const std::set<std::string> kUnlinkers = {"destroy", "gmunmap",
                                          "releaseLanes"};

/**
 * Fold @p from into @p to: a local tracked in only one is copied,
 * staleness joins with OR, and the read bit with AND when @p allPaths
 * (a path join: inspected on every path) or OR (a lambda merge).
 */
void
mergeInto(State& to, const State& from, bool allPaths)
{
    for (const auto& [name, v] : from) {
        auto [it, fresh] = to.emplace(name, v);
        if (fresh)
            continue;
        VarState& t = it->second;
        t.read = allPaths ? t.read && v.read : t.read || v.read;
        if (!t.stale && v.stale) {
            t.stale = true;
            t.staleLine = v.staleLine;
            t.staleWhy = v.staleWhy;
        }
    }
}

/** The must-check / linked-pointer domain over the shared driver. */
class FlowAnalyzer : public AbsInt<FlowAnalyzer, State>
{
  public:
    static constexpr bool kInterpretLambdas = true;

    FlowAnalyzer(const FileModel& m, const Func& f, const GlobalModel& g,
                 const Summaries* sums, std::vector<Finding>& out)
        : AbsInt(m.lx.tokens), m_(m), f_(f), g_(g), sums_(sums), out_(out)
    {
        for (const Call& c : f.calls)
            callAt_[c.tokIndex] = &c;
    }

    void run()
    {
        if (f_.bodyEnd > f_.bodyBegin + 1)
            walkFunction(f_.bodyBegin, f_.bodyEnd - 1);
    }

    // ---- lattice -------------------------------------------------------

    /** Path join: status needs reads on BOTH paths, staleness on either. */
    State join(const State& a, const State& b) const
    {
        State out = a;
        mergeInto(out, b, true);
        return out;
    }

    /** Height-two lattice: the second loop pass is already stable. */
    void widen(State&, const State&) const {}

    /**
     * Fold a lambda body's exit state back into the enclosing one,
     * optimistically: a read in the lambda counts as an inspection,
     * and a local first assigned in the lambda (the `launch([&]{ st =
     * ... })` idiom) stays tracked for the enclosing scope.
     */
    void mergeLambda(State& st, const State& body) const
    {
        mergeInto(st, body, false);
    }

    // ---- transfer functions -------------------------------------------

    /** One generic (non-control-flow) statement [pos, end). */
    void stmt(size_t pos, size_t end, State& st)
    {
        size_t eq = assignAt(pos, end);

        bool isStatus = false, isLinked = false;
        const Call* prod =
            eq < end ? producerIn(eq + 1, end, isStatus, isLinked)
                     : nullptr;

        // Shape of the left-hand side, top level only.
        size_t lhsIdents = 0, targetTok = SIZE_MAX;
        bool lhsMember = false, lhsBrackets = false, lhsIoStatus = false;
        {
            int d = 0;
            for (size_t i = pos; i < eq; ++i) {
                const std::string& t = text(i);
                if (t == "(" || t == "[" || t == "{") {
                    ++d;
                    if (t == "[")
                        lhsBrackets = true;
                    continue;
                }
                if (t == ")" || t == "]" || t == "}") {
                    --d;
                    continue;
                }
                if (d != 0)
                    continue;
                if (t == "." || t == "->")
                    lhsMember = true;
                if (toks_[i].kind == Tok::Ident) {
                    ++lhsIdents;
                    targetTok = i;
                    if (t == "IoStatus")
                        lhsIoStatus = true;
                }
            }
        }

        // A call stored into an IoStatus-typed local is a status
        // producer even without an AP_MUST_CHECK annotation in scope.
        if (eq < end && !prod && lhsIoStatus && !lhsMember) {
            for (const Call* c : callsIn(eq + 1, end)) {
                if (braceNested(eq + 1, c->tokIndex))
                    continue;
                prod = c;
                isStatus = true;
                break;
            }
        }

        // Uses and call events in program order. The assignment
        // target's own token is not a read of the old value.
        bool plainTarget = eq < end && !lhsMember && !lhsBrackets &&
                           targetTok != SIZE_MAX;
        scanUses(pos, end, st, plainTarget ? targetTok : SIZE_MAX);

        if (eq < end && plainTarget) {
            const std::string name = text(targetTok);
            if (lhsIdents == 1) {
                // Assignment to an existing local.
                auto it = st.find(name);
                if (it != st.end() && it->second.isStatus &&
                    !it->second.read) {
                    reportVar(name, it->second, toks_[targetTok].line,
                              "must-check-status",
                              "status result of '" + it->second.origin +
                                  "' (line " +
                                  std::to_string(it->second.declLine) +
                                  ") is overwritten before being "
                                  "inspected");
                }
                if (prod)
                    trackVar(st, name, *prod, isStatus, 0);
                else if (it != st.end())
                    st.erase(it);
            } else if (prod) {
                // Declaration with initializer.
                st.erase(name);
                trackVar(st, name, *prod, isStatus, depth());
            }
        } else if (eq < end && lhsMember && prod) {
            // Member store straight from a linked pointer's producer.
            if (isLinked && chainStart(toks_, prod->tokIndex) == eq + 1)
                report(prod->line, "linked-escape",
                       "storing the linked pointer from '" +
                           prod->callee +
                           "' into object state lets it outlive the "
                           "linking scope");
        } else if (eq < end && lhsMember) {
            // Member store: a live linked local leaking into object
            // state.
            for (const auto& [name, v] : st) {
                if (!v.isLinked || v.stale)
                    continue;
                if (rangeHasIdent(eq + 1, end, name)) {
                    report(toks_[pos].line, "linked-escape",
                           "storing raw pointer '" + name + "' (from '" +
                               v.origin + "', line " +
                               std::to_string(v.declLine) +
                               ") into object state lets it outlive "
                               "the link");
                }
            }
        } else if (eq >= end) {
            // No assignment: a must-check result used as a bare
            // statement (optionally behind a (void) cast) is dropped.
            size_t s = pos;
            bool voided = false;
            if (s + 2 < end && text(s) == "(" && text(s + 1) == "void" &&
                text(s + 2) == ")") {
                s += 3;
                voided = true;
            }
            for (const Call* c : callsIn(pos, end)) {
                if (!g_.mustCheck.count(c->callee))
                    continue;
                if (chainStart(toks_, c->tokIndex) != s)
                    break; // nested in another expression: consumed
                report(c->line, "must-check-status",
                       "result of '" + c->callee +
                           "' is AP_MUST_CHECK but is " +
                           (voided ? "cast to void" : "discarded") +
                           " at the call site");
                break;
            }
        }
    }

    /** A condition reads everything in it; both worlds agree. */
    void cond(size_t begin, size_t end, State& then, State& els)
    {
        scanUses(begin, end, then);
        // `while ((st = poll()) != Ok)`: the fresh value is consumed
        // by the comparison immediately, so track it already-read.
        size_t eq = begin;
        while (eq < end && text(eq) != "=")
            ++eq;
        bool isStatus = false, isLinked = false;
        const Call* prod =
            eq < end ? producerIn(eq + 1, end, isStatus, isLinked)
                     : nullptr;
        if (prod && eq > begin && toks_[eq - 1].kind == Tok::Ident) {
            trackVar(then, text(eq - 1), *prod, isStatus, 0);
            then[text(eq - 1)].read = true;
        }
        els = then;
    }

    void ret(size_t begin, size_t end, State& st)
    {
        // Returning a linked pointer, straight from its producer or
        // through a local, hands the caller a pointer that dies with
        // this frame's link — unless this function is itself
        // annotated as vending linked pointers.
        bool wrapper = g_.returnsLinked.count(f_.name) > 0;
        for (const Call* c : callsIn(begin, end)) {
            if (!wrapper && g_.returnsLinked.count(c->callee) &&
                chainStart(toks_, c->tokIndex) == begin) {
                report(c->line, "linked-escape",
                       "returning the linked pointer from '" + c->callee +
                           "' lets it outlive the linking scope");
            }
        }
        int paren = 0;
        for (size_t i = begin; i < end; ++i) {
            const std::string& tx = text(i);
            if (tx == "(" || tx == "[")
                ++paren;
            else if (tx == ")" || tx == "]")
                --paren;
            if (toks_[i].kind != Tok::Ident)
                continue;
            auto it = st.find(tx);
            if (it == st.end() || !isVarUse(i, it->first))
                continue;
            const VarState& v = it->second;
            // Only the returned value itself escapes; a linked var
            // passed as a call argument (paren > 0) stays in-frame.
            if (v.isLinked && !wrapper && paren == 0) {
                reportVar(it->first, v, toks_[i].line, "linked-escape",
                          "returning raw pointer '" + it->first +
                              "' (from '" + v.origin + "', line " +
                              std::to_string(v.declLine) +
                              ") lets it outlive the linking scope");
            }
        }
        scanUses(begin, end, st);
    }

    /** Locals tracked at @p depth or deeper go out of scope. */
    void exitScope(State& st, int depth)
    {
        for (auto it = st.begin(); it != st.end();) {
            const VarState& v = it->second;
            if (v.depth < depth) {
                ++it;
                continue;
            }
            if (v.isStatus && !v.read) {
                reportVar(it->first, v, v.declLine, "must-check-status",
                          "status result of '" + v.origin +
                              "' is never inspected before '" +
                              it->first + "' goes out of scope");
            }
            it = st.erase(it);
        }
    }

  private:
    const FileModel& m_;
    const Func& f_;
    const GlobalModel& g_;
    const Summaries* sums_;
    std::vector<Finding>& out_;
    std::map<size_t, const Call*> callAt_;
    /** (declLine, name): one diagnostic per tracked value. */
    std::set<std::pair<int, std::string>> reported_;

    // ---- emission ------------------------------------------------------

    void report(int line, const char* rule, const std::string& msg)
    {
        if (!suppressed())
            emit(out_, m_, line, rule, msg);
    }

    void reportVar(const std::string& name, const VarState& v, int line,
                   const char* rule, const std::string& msg)
    {
        if (!suppressed() && reported_.insert({v.declLine, name}).second)
            emit(out_, m_, line, rule, msg);
    }

    // ---- token helpers -------------------------------------------------

    /** Is token i a plain occurrence of a tracked variable name? */
    bool isVarUse(size_t i, const std::string& name) const
    {
        if (toks_[i].kind != Tok::Ident || text(i) != name)
            return false;
        if (is(i + 1, "("))
            return false; // a call, not the variable
        if (i > 0 && (text(i - 1) == "." || text(i - 1) == "->" ||
                      text(i - 1) == "::"))
            return false; // member of some other object
        return true;
    }

    bool callYields(const std::string& callee) const
    {
        return (sums_ ? sums_->yields : g_.yields).count(callee) > 0;
    }

    // ---- state transitions ---------------------------------------------

    void markStale(State& st, const Call& c, bool yield)
    {
        for (auto& [name, v] : st) {
            if (!v.isLinked || v.stale)
                continue;
            if (!yield && (v.receiver.empty() || v.receiver != c.receiver))
                continue;
            v.stale = true;
            v.staleLine = c.line;
            v.staleWhy =
                yield ? "the yielding call '" + c.callee + "'"
                      : "'" + c.receiver + "." + c.callee +
                            "()' unlinked it";
        }
    }

    /**
     * Scan a token range left-to-right for variable uses and call
     * events, in program order: a use before a yield is fine, after
     * it is not. `skipTok` excludes the assignment target itself.
     */
    void scanUses(size_t begin, size_t end, State& st,
                  size_t skipTok = SIZE_MAX)
    {
        for (size_t i = begin; i < end; ++i) {
            auto cit = callAt_.find(i);
            if (cit != callAt_.end()) {
                const Call& c = *cit->second;
                if (callYields(c.callee))
                    markStale(st, c, true);
                else if (kUnlinkers.count(c.callee))
                    markStale(st, c, false);
                continue;
            }
            if (i == skipTok || toks_[i].kind != Tok::Ident)
                continue;
            auto vit = st.find(text(i));
            if (vit == st.end() || !isVarUse(i, vit->first))
                continue;
            VarState& v = vit->second;
            if (v.isStatus)
                v.read = true;
            if (v.isLinked && v.stale) {
                reportVar(vit->first, v, toks_[i].line, "linked-escape",
                          "raw pointer '" + vit->first + "' from '" +
                              v.origin + "' (line " +
                              std::to_string(v.declLine) +
                              ") is used after " + v.staleWhy +
                              " (line " + std::to_string(v.staleLine) +
                              "); the translation may have been "
                              "remapped");
            }
        }
    }

    /** Calls in [begin, end), in token order. */
    std::vector<const Call*> callsIn(size_t begin, size_t end) const
    {
        std::vector<const Call*> out;
        for (const Call& c : f_.calls)
            if (c.tokIndex >= begin && c.tokIndex < end)
                out.push_back(&c);
        return out;
    }

    /**
     * Is token i inside a brace group that opens after `begin`? Calls
     * under such braces belong to a lambda (or init-list) inside the
     * statement, not to the statement's own initializer expression.
     */
    bool braceNested(size_t begin, size_t i) const
    {
        int depth = 0;
        for (size_t k = begin; k < i; ++k) {
            if (text(k) == "{")
                ++depth;
            else if (text(k) == "}")
                --depth;
        }
        return depth > 0;
    }

    /** First producer call in a range, if any (top brace level only). */
    const Call* producerIn(size_t begin, size_t end, bool& isStatus,
                           bool& isLinked) const
    {
        for (const Call* c : callsIn(begin, end)) {
            if (braceNested(begin, c->tokIndex))
                continue;
            if (g_.mustCheck.count(c->callee)) {
                isStatus = true;
                return c;
            }
            if (g_.returnsLinked.count(c->callee)) {
                isLinked = true;
                return c;
            }
        }
        return nullptr;
    }

    bool rangeHasIdent(size_t begin, size_t end,
                       const std::string& id) const
    {
        for (size_t i = begin; i < end; ++i)
            if (toks_[i].kind == Tok::Ident && text(i) == id)
                return true;
        return false;
    }

    /**
     * Start tracking @p name from producer @p c. An existing local
     * keeps its scope; an untracked one lands at @p depth.
     */
    void trackVar(State& st, const std::string& name, const Call& c,
                  bool isStatus, int depth)
    {
        auto it = st.find(name);
        VarState v;
        v.isStatus = isStatus;
        v.isLinked = !isStatus;
        v.origin = c.callee;
        v.receiver = c.receiver;
        v.declLine = c.line;
        v.depth = it != st.end() ? it->second.depth : depth;
        st[name] = v;
    }
};

} // namespace

void
runDataflow(const FileModel& m, const GlobalModel& g,
            const Summaries* sums, std::vector<Finding>& findings)
{
    for (const Func& f : m.funcs) {
        if (!f.hasBody)
            continue;
        FlowAnalyzer(m, f, g, sums, findings).run();
    }
}

} // namespace ap::lint
