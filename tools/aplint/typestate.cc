#include "typestate.hh"

#include "absint.hh"

#include <algorithm>
#include <deque>

namespace ap::lint {

namespace {

constexpr int kInf = Interval::kInf;

int
satAdd(int a, int b)
{
    if (a >= kInf || b >= kInf)
        return kInf;
    if (a <= -kInf || b <= -kInf)
        return -kInf;
    long s = static_cast<long>(a) + b;
    if (s >= kInf)
        return kInf;
    if (s <= -kInf)
        return -kInf;
    return static_cast<int>(s);
}

/** Keywords that look like calls but are not. */
bool
keywordIsh(const std::string& s)
{
    static const std::set<std::string> kw = {
        "if",     "for",     "while",  "switch",        "return",
        "do",     "else",    "case",   "goto",          "sizeof",
        "alignof", "decltype", "catch", "throw",        "new",
        "delete", "static_assert", "constexpr", "noexcept", "alignas",
    };
    return kw.count(s) > 0;
}

/** Strip all spaces from an edge string ("A -> B" -> "A->B"). */
std::string
normEdge(const std::string& s)
{
    std::string out;
    for (char c : s)
        if (c != ' ' && c != '\t')
            out += c;
    return out;
}

bool
wellFormedEdge(const std::string& e)
{
    size_t arrow = e.find("->");
    if (arrow == std::string::npos || arrow == 0 ||
        arrow + 2 >= e.size())
        return false;
    // one arrow only, identifier-ish sides
    if (e.find("->", arrow + 2) != std::string::npos)
        return false;
    auto identish = [](const std::string& s) {
        for (char c : s)
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '_')
                return false;
        return !s.empty();
    };
    return identish(e.substr(0, arrow)) && identish(e.substr(arrow + 2));
}

// ---- abstract state -----------------------------------------------------

struct AbsState
{
    std::map<std::string, Interval> net; ///< class -> net refs
    /** result-variable bindings: local -> class acquired into it. */
    std::map<std::string, std::string> pending;
    /** class -> inferred-effect witness chain for diagnostics. */
    std::map<std::string, std::string> via;
};

Interval
getNet(const AbsState& st, const std::string& cls)
{
    auto it = st.net.find(cls);
    return it == st.net.end() ? Interval{} : it->second;
}

void
addNet(AbsState& st, const std::string& cls, Interval iv)
{
    st.net[cls] = addIv(getNet(st, cls), iv);
}

// ---- the refcount domain ------------------------------------------------

/**
 * Net-refcount intervals per resource class over the shared driver
 * (absint.hh). Returns snapshot the path as a function exit; lambda
 * bodies are skipped.
 */
class RefWalker : public AbsInt<RefWalker, AbsState>
{
  public:
    static constexpr bool kInterpretLambdas = false;

    RefWalker(const FileModel& m, const Func& f, const GlobalModel& g,
              const Summaries* sums)
        : AbsInt(m.lx.tokens), f_(f), g_(g), sums_(sums)
    {
        auto a = g.acquiresRef.find(f.name);
        if (a != g.acquiresRef.end())
            ownClass_ = a->second;
        else {
            auto r = g.releasesRef.find(f.name);
            if (r != g.releasesRef.end())
                ownClass_ = r->second;
        }
    }

    void run()
    {
        if (f_.hasBody && f_.bodyEnd > f_.bodyBegin + 1)
            exits = walkFunction(f_.bodyBegin, f_.bodyEnd - 1);
    }

    std::vector<Exit> exits;
    /** Classes with at least one tracked event in the body. */
    std::set<std::string> events;

    // ---- lattice --------------------------------------------------------

    AbsState join(const AbsState& a, const AbsState& b) const
    {
        AbsState out;
        for (const auto& [k, v] : a.net)
            out.net[k] = joinIv(v, getNet(b, k));
        for (const auto& [k, v] : b.net)
            out.net.emplace(k, joinIv(getNet(a, k), v));
        for (const auto& [var, cls] : a.pending) {
            auto it = b.pending.find(var);
            if (it != b.pending.end() && it->second == cls)
                out.pending[var] = cls;
        }
        out.via = a.via;
        out.via.insert(b.via.begin(), b.via.end());
        return out;
    }

    /** Bounds that moved across the first pass go unbounded. */
    void widen(AbsState& next, const AbsState& entry) const
    {
        for (auto& [cls, iv] : next.net) {
            Interval e0 = getNet(entry, cls);
            if (iv.lo < e0.lo)
                iv.lo = -kInf;
            if (iv.hi > e0.hi)
                iv.hi = kInf;
        }
    }

    // ---- transfer functions ---------------------------------------------

    /** Call effects, plus `Type var = ...acq(...)...` bindings. */
    void stmt(size_t b, size_t e, AbsState& st)
    {
        std::string var;
        size_t eq = assignAt(b, e);
        if (eq > b + 1 && eq < e && isIdent(eq - 1)) {
            bool typish = true;
            for (size_t k = b; k < eq && typish; ++k) {
                const std::string& t = text(k);
                typish = isIdent(k) || t == "::" || t == "<" ||
                         t == ">" || t == "&" || t == "*" || t == ",";
            }
            if (typish)
                var = text(eq - 1);
        }

        for (const CallSite& c : collectCalls(b, e)) {
            applyCallEffect(c.callee, st);
            if (!var.empty()) {
                auto it = g_.acquiresRef.find(c.callee);
                if (it != g_.acquiresRef.end())
                    st.pending[var] = it->second;
            }
        }
    }

    /**
     * Split a branch condition [b, e) into success/failure worlds:
     *  - `acq(...)` / `!acq(...)`: the declared acquisition lands only
     *    in the world where the call succeeded;
     *  - `r.ok()` / `!r.ok()` on a bound acquire result: the failure
     *    world hands the reference back (-1) and the binding dies;
     *  - `atomicCas(a, x, x+n) == x`: the delta lands on the success
     *    comparison's world only.
     * Everything else applies symmetrically.
     */
    void cond(size_t b, size_t e, AbsState& thenSt, AbsState& elseSt)
    {
        size_t first = b;
        while (first < e && is(first, "("))
            ++first;
        bool neg = first < e && is(first, "!");

        auto calls = collectCalls(b, e);
        size_t acqIdx = SIZE_MAX;
        std::string acqClass;
        for (const CallSite& c : calls) {
            auto it = g_.acquiresRef.find(c.callee);
            if (it != g_.acquiresRef.end()) {
                acqIdx = c.idx;
                acqClass = it->second;
                break;
            }
        }
        for (const CallSite& c : calls) {
            if (c.idx == acqIdx)
                continue;
            applyCallEffect(c.callee, thenSt);
            applyCallEffect(c.callee, elseSt);
        }
        if (acqIdx != SIZE_MAX) {
            AbsState& success = neg ? elseSt : thenSt;
            addNet(success, acqClass, {1, 1});
            events.insert(acqClass);
            return;
        }
        // bound-result inspection: [!] var . ok (
        for (size_t i = b; i + 3 < e; ++i) {
            if (!isIdent(i))
                continue;
            auto p = thenSt.pending.find(text(i));
            if (p == thenSt.pending.end())
                continue;
            if ((is(i + 1, ".") || is(i + 1, "->")) && is(i + 2, "ok") &&
                is(i + 3, "(")) {
                const std::string cls = p->second;
                AbsState& failure = neg ? thenSt : elseSt;
                addNet(failure, cls, {-1, -1});
                thenSt.pending.erase(text(i));
                elseSt.pending.erase(text(i));
                return;
            }
        }
        // raw CAS idiom, attributed to the function's declared class
        if (!ownClass_.empty()) {
            size_t after = 0;
            int d = casDelta(b, e, &after);
            if (d != 0) {
                bool successIsThen = !(after < e && is(after, "!="));
                AbsState& success = successIsThen ? thenSt : elseSt;
                addNet(success, ownClass_, {d, d});
                events.insert(ownClass_);
            }
        }
    }

    void ret(size_t b, size_t e, AbsState& st)
    {
        for (const CallSite& c : collectCalls(b, e))
            applyCallEffect(c.callee, st);
    }

    void exitScope(AbsState&, int) const {}

  private:
    const Func& f_;
    const GlobalModel& g_;
    const Summaries* sums_;
    std::string ownClass_; ///< declared class for raw-CAS attribution

    /**
     * i at a '[' lambda introducer: skip introducer, params, and the
     * body wholesale (a lambda's effects do not run inline; see
     * absint.hh). Returns true if consumed.
     */
    bool skipLambda(size_t& i) const
    {
        size_t j = match(i, toks_.size()) + 1;
        if (is(j, "("))
            j = match(j, toks_.size()) + 1;
        // qualifiers / trailing return type before the body
        size_t guard = 0;
        while (j < toks_.size() && !is(j, "{") && guard++ < 8) {
            if (is(j, "->")) {
                ++j;
                while (j < toks_.size() && !is(j, "{") && !is(j, ";") &&
                       !is(j, ",") && !is(j, ")"))
                    ++j;
                break;
            }
            if (!isIdent(j))
                break;
            ++j;
        }
        if (!is(j, "{"))
            return false; // subscript or attribute, not a lambda
        i = match(j, toks_.size()) + 1;
        return true;
    }

    void applyCallEffect(const std::string& callee, AbsState& st)
    {
        auto a = g_.acquiresRef.find(callee);
        if (a != g_.acquiresRef.end()) {
            addNet(st, a->second, {1, 1});
            events.insert(a->second);
            return;
        }
        auto r = g_.releasesRef.find(callee);
        if (r != g_.releasesRef.end()) {
            addNet(st, r->second, {-1, -1});
            events.insert(r->second);
            return;
        }
        if (g_.balanced.count(callee) || !sums_)
            return; // declared net-zero boundary, or no summaries
        auto it = sums_->refEffects.find(callee);
        if (it == sums_->refEffects.end())
            return;
        for (const auto& [cls, iv] : it->second) {
            if (iv.zero())
                continue;
            addNet(st, cls, iv);
            events.insert(cls);
            std::string chain = callee;
            auto w = sums_->refWitness.find(callee);
            if (w != sums_->refWitness.end() && !w->second.empty())
                chain += " -> " + w->second;
            st.via[cls] = chain;
        }
    }

    struct CallSite
    {
        size_t idx;
        std::string callee;
    };

    /** Direct `name(` call sites in [b, e), skipping lambda bodies. */
    std::vector<CallSite> collectCalls(size_t b, size_t e) const
    {
        std::vector<CallSite> out;
        for (size_t i = b; i < e && i < toks_.size();) {
            if (is(i, "[")) {
                size_t save = i;
                if (!skipLambda(i))
                    i = save + 1;
                continue;
            }
            if (isIdent(i) && !keywordIsh(text(i)) && is(i + 1, "("))
                out.push_back({i, text(i)});
            ++i;
        }
        return out;
    }

    /**
     * Recognize `atomicCas<T>(addr, x, x +/- n)` in [b, e): the raw
     * refcount-CAS idiom. Returns +1/-1, or 0 when the shape does not
     * match (an eviction claim `(rca, 0, -1)` is deliberately outside
     * the shape: its second argument is not the re-added identifier).
     * On success *cmpAfter receives the token after the call's `)`.
     */
    int casDelta(size_t b, size_t e, size_t* cmpAfter) const
    {
        for (size_t i = b; i < e && i < toks_.size(); ++i) {
            if (!isIdent(i) || text(i) != "atomicCas")
                continue;
            size_t j = i + 1;
            if (is(j, "<"))
                j = match(j, toks_.size()) + 1;
            if (!is(j, "("))
                continue;
            size_t close = match(j, toks_.size());
            // split three top-level args
            std::vector<std::vector<size_t>> args(1);
            int depth = 0;
            for (size_t k = j + 1; k < close; ++k) {
                const std::string& t = text(k);
                if (t == "(" || t == "[" || t == "{" || t == "<")
                    ++depth;
                else if (t == ")" || t == "]" || t == "}" || t == ">")
                    --depth;
                if (t == "," && depth == 0) {
                    args.emplace_back();
                    continue;
                }
                args.back().push_back(k);
            }
            if (args.size() != 3 || args[1].size() != 1 ||
                args[2].size() != 3)
                continue;
            size_t oldv = args[1][0];
            if (!isIdent(oldv))
                continue;
            // arg3 must be `<old> + n` or `<old> - n`
            if (!isIdent(args[2][0]) || text(args[2][0]) != text(oldv))
                continue;
            const std::string& op = text(args[2][1]);
            if (op != "+" && op != "-")
                continue;
            if (cmpAfter)
                *cmpAfter = close + 1;
            return op == "+" ? 1 : -1;
        }
        return 0;
    }
};

// ---- publication scan ---------------------------------------------------

struct Pub
{
    std::string state;
    int line;
};

/**
 * PteState publications in [b, e): `.state = ...PteState::S...` field
 * assignments and `store(...stateAddr/state_addr..., ...PteState::S)`
 * calls. Comparisons (`==`, `!=`) never match; a `store` without a
 * state-address argument never matches.
 */
std::vector<Pub>
findPublications(const std::vector<Token>& toks, size_t b, size_t e)
{
    std::vector<Pub> pubs;
    for (size_t i = b; i < e && i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != Tok::Ident)
            continue;
        if (t.text == "state" && i > b &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
            i + 1 < e && toks[i + 1].text == "=") {
            for (size_t j = i + 2; j < e && toks[j].text != ";"; ++j) {
                if (toks[j].kind == Tok::Ident &&
                    toks[j].text == "PteState" && j + 2 < e &&
                    toks[j + 1].text == "::") {
                    pubs.push_back({toks[j + 2].text, t.line});
                    break;
                }
            }
            continue;
        }
        if (t.text == "store") {
            size_t j = i + 1;
            if (j < e && toks[j].text == "<") {
                int d = 0;
                for (; j < e; ++j) {
                    if (toks[j].text == "<")
                        ++d;
                    else if (toks[j].text == ">" && --d == 0) {
                        ++j;
                        break;
                    }
                }
            }
            if (j >= e || toks[j].text != "(")
                continue;
            int depth = 0;
            size_t close = j;
            for (; close < e; ++close) {
                if (toks[close].text == "(")
                    ++depth;
                else if (toks[close].text == ")" && --depth == 0)
                    break;
            }
            bool addr = false;
            std::string state;
            for (size_t k = j + 1; k < close; ++k) {
                if (toks[k].kind != Tok::Ident)
                    continue;
                if (toks[k].text == "stateAddr" ||
                    toks[k].text == "state_addr")
                    addr = true;
                if (toks[k].text == "PteState" && k + 2 < close &&
                    toks[k + 1].text == "::")
                    state = toks[k + 2].text;
            }
            if (addr && !state.empty())
                pubs.push_back({state, t.line});
        }
    }
    return pubs;
}

// ---- per-function checks ------------------------------------------------

void
checkRefBalance(const FileModel& m, const Func& f, const GlobalModel& g,
                const Summaries* sums,
                std::vector<Finding>& findings)
{
    const bool isBal = g.balanced.count(f.name) > 0;
    auto ai = g.acquiresRef.find(f.name);
    auto ri = g.releasesRef.find(f.name);
    const bool isAcq = ai != g.acquiresRef.end();
    const bool isRel = ri != g.releasesRef.end();
    if (!isBal && !isAcq && !isRel)
        return;
    if (!f.hasBody)
        return;

    RefWalker w(m, f, g, sums);
    w.run();

    std::set<std::pair<int, std::string>> reported;
    for (const RefWalker::Exit& e : w.exits) {
        std::set<std::string> classes;
        for (const auto& [cls, iv] : e.st.net)
            classes.insert(cls);
        if (isAcq)
            classes.insert(ai->second);
        if (isRel)
            classes.insert(ri->second);
        for (const std::string& cls : classes) {
            Interval v = getNet(e.st, cls);
            bool ok;
            std::string want;
            if (isAcq && cls == ai->second) {
                ok = v.lo >= 0 && v.hi <= 1;
                want = "0 (failure path) or +1 (AP_ACQUIRES_REF)";
            } else if (isRel && cls == ri->second) {
                if (!w.events.count(cls))
                    continue; // trusted leaf boundary
                ok = v.lo == -1 && v.hi == -1;
                want = "exactly -1 (AP_RELEASES_REF)";
            } else {
                ok = v.zero();
                want = isBal ? "0 on every path (AP_BALANCED)"
                             : "0 (class not declared here)";
            }
            if (ok)
                continue;
            if (!reported.insert({e.line, cls}).second)
                continue;
            std::string msg = "path returns with net " + ivText(v) +
                              " ref(s) on '" + cls + "' in " + f.name +
                              "; expected " + want;
            auto via = e.st.via.find(cls);
            if (via != e.st.via.end())
                msg += " (effect inferred via " + via->second + ")";
            emit(findings, m, e.line, "ref-balance", msg);
        }
    }
}

void
checkStateEdges(const FileModel& m, const Func& f, const GlobalModel& g,
                const Summaries* sums,
                std::vector<Finding>& findings)
{
    if (!f.hasBody)
        return;
    static const std::set<std::string> kNone;
    auto di = g.transitions.find(f.name);
    const std::set<std::string>& declared =
        di == g.transitions.end() ? kNone : di->second;

    std::vector<Pub> pubs =
        findPublications(m.lx.tokens, f.bodyBegin, f.bodyEnd);
    for (const Pub& p : pubs) {
        bool covered = false;
        for (const std::string& e : declared)
            covered = covered || e.ends_with("->" + p.state);
        if (!covered)
            emit(findings, m, p.line, "state-edge",
                 f.name + " publishes PteState::" + p.state +
                     " without a covering AP_TRANSITIONS edge "
                     "'*->" +
                     p.state + "'");
    }

    for (const std::string& e : declared) {
        size_t arrow = e.find("->");
        if (arrow == std::string::npos)
            continue; // malformed; transition-decl reports it
        std::string to = e.substr(arrow + 2);
        bool witnessed = false;
        for (const Pub& p : pubs)
            witnessed = witnessed || p.state == to;
        // the closure includes the declarations themselves
        const auto& closure = sums ? sums->transitions : g.transitions;
        for (const Call& c : f.calls) {
            auto cd = closure.find(c.callee);
            witnessed = witnessed ||
                        (cd != closure.end() && cd->second.count(e));
        }
        if (!witnessed)
            emit(findings, m, f.line, "state-edge",
                 f.name + " declares transition '" + e +
                     "' but neither the body nor any callee "
                     "publishes it");
    }
}

void
checkTransitionDecls(const FileModel& m, const GlobalModel& g,
                     std::vector<Finding>& findings)
{
    for (const Func& f : m.funcs) {
        for (const Annotation& a : f.anns) {
            if (a.name != "AP_TRANSITIONS")
                continue;
            if (a.args.empty()) {
                emit(findings, m, a.line, "transition-decl",
                     "AP_TRANSITIONS on " + f.name +
                         " lists no edges");
                continue;
            }
            for (const std::string& raw : a.args) {
                std::string e = normEdge(raw);
                if (!wellFormedEdge(e)) {
                    emit(findings, m, a.line, "transition-decl",
                         "malformed transition '" + raw +
                             "' on " + f.name +
                             " (want 'From->To')");
                    continue;
                }
                if (g.pteEdges.empty()) {
                    emit(findings, m, a.line, "transition-decl",
                         "AP_TRANSITIONS on " + f.name +
                             " but no kPteStateMachine table registers "
                             "the state machine");
                    continue;
                }
                if (!g.pteEdges.count(e))
                    emit(findings, m, a.line, "transition-decl",
                         "transition '" + e + "' on " + f.name +
                             " is not an edge of the "
                             "registered PteState machine");
            }
        }
    }
}

} // namespace

Interval
joinIv(Interval a, Interval b)
{
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval
addIv(Interval a, Interval b)
{
    return {satAdd(a.lo, b.lo), satAdd(a.hi, b.hi)};
}

std::string
ivText(Interval v)
{
    auto one = [](int x) -> std::string {
        if (x >= kInf)
            return "+inf";
        if (x <= -kInf)
            return "-inf";
        return (x > 0 ? "+" : "") + std::to_string(x);
    };
    if (v.lo == v.hi)
        return one(v.lo);
    return "[" + one(v.lo) + "," + one(v.hi) + "]";
}

void
computeRefSummaries(const std::vector<FileModel>& files,
                    const GlobalModel& g, const CallGraph& cg,
                    Summaries& out)
{
    // ref-effect fixpoint over unannotated bodies; annotated
    // functions are declared boundaries and never inferred
    auto annotated = [&](const std::string& n) {
        return g.acquiresRef.count(n) || g.releasesRef.count(n) ||
               g.balanced.count(n);
    };
    std::map<std::string,
             std::vector<std::pair<const FileModel*, const Func*>>>
        bodies;
    for (const FileModel& m : files)
        for (const Func& f : m.funcs)
            if (f.hasBody && !annotated(f.name))
                bodies[f.name].push_back({&m, &f});

    std::deque<std::string> wl;
    std::set<std::string> queued;
    for (const auto& [name, v] : bodies) {
        wl.push_back(name);
        queued.insert(name);
    }
    size_t guard = 0;
    const size_t kGuard = 100000;
    while (!wl.empty() && guard++ < kGuard) {
        std::string n = wl.front();
        wl.pop_front();
        queued.erase(n);

        // the hull of every exit of every body named n
        AbsState all;
        bool any = false;
        for (const auto& [mp, fp] : bodies[n]) {
            RefWalker w(*mp, *fp, g, &out);
            w.run();
            for (const RefWalker::Exit& e : w.exits) {
                all = any ? w.join(all, e.st) : e.st;
                any = true;
            }
        }
        std::map<std::string, Interval>& eff = all.net;
        // clamp runaway bounds so cyclic graphs terminate
        for (auto& [cls, iv] : eff) {
            if (iv.lo < -4)
                iv.lo = -kInf;
            if (iv.hi > 4)
                iv.hi = kInf;
        }
        for (auto it = eff.begin(); it != eff.end();)
            it = it->second.zero() ? eff.erase(it) : std::next(it);

        auto cur = out.refEffects.find(n);
        bool changed = cur == out.refEffects.end() ? !eff.empty()
                                                   : cur->second != eff;
        if (!changed)
            continue;
        out.refEffects[n] = eff;
        if (!all.via.empty())
            out.refWitness[n] = all.via.begin()->second;
        auto cal = cg.callers.find(n);
        if (cal != cg.callers.end())
            for (const std::string& c : cal->second)
                if (bodies.count(c) && queued.insert(c).second)
                    wl.push_back(c);
    }
}

void
runTypestate(const FileModel& m, const GlobalModel& g,
             const Summaries* sums, std::vector<Finding>& findings)
{
    for (const Func& f : m.funcs) {
        checkRefBalance(m, f, g, sums, findings);
        checkStateEdges(m, f, g, sums, findings);
    }
    checkTransitionDecls(m, g, findings);
}

} // namespace ap::lint
