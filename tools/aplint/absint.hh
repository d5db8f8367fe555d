/**
 * @file
 * The abstract-interpretation driver behind aplint's flow-sensitive
 * passes: one token walker over a function body, parameterized by an
 * abstract domain. dataflow.cc (must-check-status, linked-escape)
 * and typestate.cc (ref-balance) are its two domains; every
 * control-flow decision lives here, so both read the same program.
 *
 * Path semantics:
 *  - A block `{...}` is a scope. Every path that falls off its closing
 *    brace passes through the domain's exitScope(state, depth) hook.
 *  - `if (c) A else B`: the condition hook splits the pre-state into a
 *    then world and an else world; the arms are walked apart and
 *    joined.
 *  - `while`, `for`, range-`for` and `do` are walked twice. Pass 1
 *    starts from the entry state with findings suppressed; its back
 *    edge (the body's end plus every `continue`) is joined with the
 *    entry and widened, and pass 2 starts from that state. The loop
 *    exits through pass 2's condition-false world (none for
 *    `while (true)` / `for (;;)`; a range-`for` may stop after any
 *    iteration) joined with every `break`. A `for` init runs once, its
 *    increment on every back edge.
 *  - `switch (x)`: every `case`/`default` label is entered both from
 *    the switch head and by fallthrough; `break` goes to the exit,
 *    which also takes the head when no `default` label exists.
 *  - `return`, `break` and `continue` kill the path. The jumping path
 *    first leaves every scope between it and its target (exitScope),
 *    then joins the target: the loop or switch exit, the back edge, or
 *    the frame's exit list.
 *
 * Lambda policy, per domain (D::kInterpretLambdas):
 *  - dataflow interprets each brace group inside a statement as a
 *    nested frame (its own scopes, loops and returns) seeded with the
 *    enclosing state, then folds the frame's exits back into the
 *    enclosing state with D::mergeLambda. A status dropped inside a
 *    lambda is a drop, and `launch([&]{ st = io.poll(); })` assigns
 *    the enclosing local.
 *  - typestate skips lambda bodies: their refcount effects do not run
 *    inline.
 *
 * The soundness limits of both passes are listed once, in DESIGN.md
 * §9.3.
 */

#ifndef APLINT_ABSINT_HH
#define APLINT_ABSINT_HH

#include "lexer.hh"

#include <string>
#include <vector>

namespace ap::lint {

/**
 * CRTP base. The domain D derives from AbsInt<D, S> and supplies:
 *
 *   S    join(const S& a, const S& b)        both paths live
 *   void widen(S& next, const S& entry)      before a loop's pass 2
 *   void stmt(size_t b, size_t e, S& st)     statement tokens [b, e)
 *   void cond(size_t b, size_t e, S& then, S& els)   condition [b, e)
 *   void ret(size_t b, size_t e, S& st)      `return` operand [b, e)
 *   void exitScope(S& st, int depth)         scopes >= depth end
 *   void mergeLambda(S& outer, const S& body)
 *   static constexpr bool kInterpretLambdas
 *
 * Hooks are only called on live paths.
 */
template <class D, class S>
class AbsInt
{
  public:
    /** A frame exit: the state at a `return` or the closing brace. */
    struct Exit
    {
        S st;
        int line;
    };

  protected:
    explicit AbsInt(const std::vector<Token>& toks) : toks_(toks) {}

    /**
     * Walk the function body whose `{` is at @p open and `}` at
     * @p close from an empty state. Returns every exit; a loop's first
     * pass records none.
     */
    std::vector<Exit> walkFunction(size_t open, size_t close)
    {
        return walkFrame(open, close, S{});
    }

    /** True while a loop's first (widening) pass is being walked. */
    bool suppressed() const { return suppress_ > 0; }

    /** Scope depth of the statement being walked; 0 = function body. */
    int depth() const { return depth_; }

    const std::string& text(size_t i) const { return toks_[i].text; }

    bool is(size_t i, const char* s) const
    {
        return i < toks_.size() && toks_[i].text == s;
    }

    bool isIdent(size_t i) const
    {
        return i < toks_.size() && toks_[i].kind == Tok::Ident;
    }

    /** Matching closer of the `(`, `[`, `{` or `<` at @p open. */
    size_t match(size_t open, size_t bound) const
    {
        const std::string& o = text(open);
        const char* c = o == "(" ? ")" : o == "[" ? "]" : o == "<" ? ">"
                                                                   : "}";
        int depth = 0;
        for (size_t i = open; i < bound && i < toks_.size(); ++i) {
            if (text(i) == o)
                ++depth;
            else if (text(i) == c && --depth == 0)
                return i;
        }
        return bound;
    }

    /** First `=` outside any bracket group in [b, e), or e. */
    size_t assignAt(size_t b, size_t e) const
    {
        int depth = 0;
        for (size_t i = b; i < e; ++i) {
            const std::string& t = text(i);
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            else if (t == "=" && depth == 0)
                return i;
        }
        return e;
    }

    /** End of a statement: first `;` outside any bracket group. */
    size_t stmtEnd(size_t pos, size_t bound) const
    {
        int depth = 0;
        for (size_t i = pos; i < bound; ++i) {
            const std::string& t = text(i);
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            else if (t == ";" && depth <= 0)
                return i;
        }
        return bound;
    }

    const std::vector<Token>& toks_;

  private:
    struct Path
    {
        S st;
        bool dead = false;
    };

    /** An enclosing loop or switch: where `break`/`continue` land. */
    struct Target
    {
        Target(bool l, int d, Path h) : loop(l), depth(d), head(h) {}
        bool loop;
        int depth; ///< the construct's own scope; its body is deeper
        Path head; ///< switch: the state after the subject
        std::vector<S> breaks;
        std::vector<S> continues;
        bool hasDefault = false;
    };

    /** One function or lambda body being walked. */
    struct Frame
    {
        explicit Frame(int b) : base(b) {}
        int base; ///< depth of the body's top-level statements
        int widening = 0;
        std::vector<Target> targets;
        std::vector<Exit> exits;
    };

    std::vector<Frame> frames_;
    int depth_ = -1;
    int suppress_ = 0;

    D& self() { return static_cast<D&>(*this); }
    Frame& frame() { return frames_.back(); }

    void join(Path& into, const Path& p)
    {
        if (p.dead)
            return;
        if (into.dead)
            into = p;
        else
            into.st = self().join(into.st, p.st);
    }

    void split(size_t b, size_t e, Path& then, Path& els)
    {
        if (!then.dead)
            self().cond(b, e, then.st, els.st);
    }

    std::vector<Exit> walkFrame(size_t open, size_t close, const S& entry)
    {
        frames_.emplace_back(depth_ + 1);
        Path p{entry};
        block(open, close, p);
        Frame fr = std::move(frames_.back());
        frames_.pop_back();
        if (!p.dead)
            fr.exits.push_back({p.st, toks_[close].line});
        return std::move(fr.exits);
    }

    void block(size_t open, size_t close, Path& p)
    {
        ++depth_;
        for (size_t pos = open + 1; pos < close;)
            pos = one(pos, close, p);
        if (!p.dead)
            self().exitScope(p.st, depth_);
        --depth_;
    }

    /** Walk the statement at @p pos; returns the position past it. */
    size_t one(size_t pos, size_t bound, Path& p)
    {
        if (pos >= bound)
            return bound;
        const std::string& t = text(pos);
        if (t == ";" || t == "}")
            return pos + 1;
        if (t == "{") {
            size_t close = match(pos, bound);
            block(pos, close, p);
            return close + 1;
        }
        if (isIdent(pos)) {
            if (t == "if")
                return walkIf(pos, bound, p);
            if (t == "while" || t == "for" || t == "do")
                return walkLoop(pos, bound, p);
            if (t == "switch")
                return walkSwitch(pos, bound, p);
            if (t == "return" || t == "break" || t == "continue")
                return walkJump(pos, bound, p);
            if (t == "case" || (t == "default" && is(pos + 1, ":")))
                return walkLabel(pos, bound, p);
            if (t == "else") // dangling else of an unrecognized shape
                return one(pos + 1, bound, p);
        }
        size_t e = stmtEnd(pos, bound);
        if (!p.dead) {
            self().stmt(pos, e, p.st);
            lambdas(pos, e, p);
        }
        return e < bound ? e + 1 : bound;
    }

    size_t walkIf(size_t pos, size_t bound, Path& p)
    {
        size_t open = pos + 1;
        if (is(open, "constexpr"))
            ++open;
        if (open >= bound || !is(open, "("))
            return pos + 1;
        size_t close = match(open, bound);
        Path els = p;
        split(open + 1, close, p, els);
        size_t q = one(close + 1, bound, p);
        if (q < bound && is(q, "else"))
            q = one(q + 1, bound, els);
        join(p, els);
        return q;
    }

    /** `while (c) S`, `for (i; c; n) S`, `for (d : r) S`, `do S while (c);` */
    size_t walkLoop(size_t pos, size_t bound, Path& p)
    {
        const bool isDo = is(pos, "do");
        size_t cb = 0, ce = 0, nb = 0, ne = 0, body = pos + 1;
        bool ranged = false;
        ++depth_; // the header's scope, home of `for` declarations
        if (!isDo) {
            if (!is(body, "(")) {
                --depth_;
                return pos + 1;
            }
            size_t close = match(body, bound);
            cb = body + 1;
            ce = close;
            body = close + 1;
            if (is(pos, "for")) {
                size_t init = stmtEnd(cb, ce);
                ranged = init == ce;
                if (!p.dead) // the init, or the whole range header
                    self().stmt(cb, init, p.st);
                if (!ranged) {
                    size_t cond = stmtEnd(init + 1, ce);
                    nb = cond + 1;
                    ne = ce;
                    cb = init + 1;
                    ce = cond;
                }
            }
        }

        // One walk of the body from `in`: the back edge, the exit
        // world, the breaks, and the position past the loop.
        struct Pass
        {
            Path back, leave;
            std::vector<S> breaks;
            size_t end;
        };
        auto pass = [&](const Path& in) {
            Pass r{in, in, {}, body};
            if (!ranged && !isDo)
                test(cb, ce, r.back, r.leave);
            frame().targets.emplace_back(true, depth_, Path{});
            r.end = one(body, bound, r.back);
            Target t = std::move(frame().targets.back());
            frame().targets.pop_back();
            for (const S& c : t.continues)
                join(r.back, Path{c});
            if (nb < ne && !r.back.dead)
                self().stmt(nb, ne, r.back.st);
            if (isDo) {
                r.leave = r.back;
                if (is(r.end, "while") && is(r.end + 1, "(")) {
                    size_t close = match(r.end + 1, bound);
                    test(r.end + 2, close, r.back, r.leave);
                    r.end = close + 1;
                }
                if (is(r.end, ";"))
                    ++r.end;
            }
            r.breaks = std::move(t.breaks);
            return r;
        };

        ++suppress_;
        ++frame().widening;
        Pass first = pass(p);
        --suppress_;
        --frame().widening;

        Path next = p;
        join(next, first.back);
        if (!next.dead && !p.dead)
            self().widen(next.st, p.st);
        Pass second = pass(next);

        p = second.leave;
        for (const S& b : second.breaks)
            join(p, Path{b});
        if (!p.dead)
            self().exitScope(p.st, depth_);
        --depth_;
        return second.end;
    }

    /** Loop condition: `true`, `1` or empty never exits. */
    void test(size_t b, size_t e, Path& stay, Path& leave)
    {
        if (b >= e || (e - b == 1 && (is(b, "true") || is(b, "1"))))
            leave.dead = true;
        else
            split(b, e, stay, leave);
    }

    size_t walkSwitch(size_t pos, size_t bound, Path& p)
    {
        size_t open = pos + 1;
        if (!is(open, "("))
            return pos + 1;
        size_t close = match(open, bound);
        Path ignored = p;
        split(open + 1, close, p, ignored);
        frame().targets.emplace_back(false, depth_, p);
        Path body = p;
        body.dead = true; // nothing runs before the first label
        size_t q = one(close + 1, bound, body);
        Target t = std::move(frame().targets.back());
        frame().targets.pop_back();
        for (const S& b : t.breaks)
            join(body, Path{b});
        if (!t.hasDefault)
            join(body, t.head);
        p = body;
        return q;
    }

    size_t walkLabel(size_t pos, size_t bound, Path& p)
    {
        for (auto it = frame().targets.rbegin();
             it != frame().targets.rend(); ++it) {
            if (it->loop)
                continue;
            join(p, it->head);
            it->hasDefault = it->hasDefault || is(pos, "default");
            break;
        }
        while (pos < bound && !is(pos, ":"))
            ++pos;
        return pos < bound ? pos + 1 : bound;
    }

    size_t walkJump(size_t pos, size_t bound, Path& p)
    {
        size_t e = stmtEnd(pos, bound);
        size_t next = e < bound ? e + 1 : bound;
        if (p.dead)
            return next;
        if (is(pos, "return")) {
            self().ret(pos + 1, e, p.st);
            lambdas(pos + 1, e, p);
            self().exitScope(p.st, frame().base);
            if (frame().widening == 0)
                frame().exits.push_back({p.st, toks_[pos].line});
            p.dead = true;
            return next;
        }
        const bool brk = is(pos, "break");
        for (auto it = frame().targets.rbegin();
             it != frame().targets.rend(); ++it) {
            if (!brk && !it->loop)
                continue;
            self().exitScope(p.st, it->depth + 1);
            (brk ? it->breaks : it->continues).push_back(p.st);
            p.dead = true;
            break;
        }
        return next;
    }

    /** Per-domain lambda policy: see the file comment. */
    void lambdas(size_t b, size_t e, Path& p)
    {
        if constexpr (D::kInterpretLambdas) {
            for (size_t i = b; i < e; ++i) {
                if (!is(i, "{"))
                    continue;
                size_t close = match(i, e);
                Path out{S{}, true};
                for (const Exit& x : walkFrame(i, close, p.st))
                    join(out, Path{x.st});
                if (!out.dead)
                    self().mergeLambda(p.st, out.st);
                i = close;
            }
        }
    }
};

} // namespace ap::lint

#endif // APLINT_ABSINT_HH
