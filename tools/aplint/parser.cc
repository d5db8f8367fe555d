#include "parser.hh"

#include <set>

namespace ap::lint {

namespace {

const std::set<std::string> kAnnotations = {
    "AP_LOCKSTEP",  "AP_LEADER_ONLY", "AP_ELECTS_LEADER",
    "AP_REQUIRES_LINKED", "AP_ACQUIRES", "AP_NO_YIELD",
    "AP_YIELDS",    "AP_LOCK_LEVEL",  "AP_MUST_CHECK",
    "AP_RETURNS_LINKED", "AP_ACQUIRES_REF", "AP_RELEASES_REF",
    "AP_TRANSITIONS", "AP_BALANCED",
};

/** Keywords that look like calls (`if (...)`) but are not. */
const std::set<std::string> kNotCalls = {
    "if",     "for",    "while",   "switch",   "return", "do",
    "else",   "case",   "goto",    "sizeof",   "alignof", "decltype",
    "catch",  "throw",  "new",     "delete",   "static_assert",
    "constexpr", "noexcept", "alignas",
};

/** Qualifier identifiers legal between a parameter list and the body. */
const std::set<std::string> kTrailingQuals = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "constexpr", "try",
};

std::string
trim(const std::string& s)
{
    size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

std::string
unquote(const std::string& s)
{
    if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
        return s.substr(1, s.size() - 2);
    return s;
}

class Parser
{
  public:
    Parser(FileModel& out) : m(out), toks(out.lx.tokens) {}

    void run()
    {
        parseDecls("");
        parseWaivers();
    }

  private:
    FileModel& m;
    const std::vector<Token>& toks;
    size_t pos = 0;

    bool done() const { return pos >= toks.size(); }
    const Token& cur() const { return toks[pos]; }
    bool at(const char* s) const { return !done() && cur().text == s; }
    bool atIdent() const { return !done() && cur().kind == Tok::Ident; }

    /** Skip a balanced (...)/{...}/[...] group; pos is at the opener. */
    void skipBalanced(char open, char close)
    {
        int depth = 0;
        std::string o(1, open), c(1, close);
        while (!done()) {
            if (cur().text == o)
                ++depth;
            else if (cur().text == c && --depth == 0) {
                ++pos;
                return;
            }
            ++pos;
        }
    }

    /** Skip template argument angles; `>>` closes two levels. */
    void skipAngles()
    {
        int depth = 0;
        while (!done()) {
            const std::string& t = cur().text;
            if (t == "<")
                ++depth;
            else if (t == ">") {
                if (--depth == 0) {
                    ++pos;
                    return;
                }
            } else if (t == ">>") {
                depth -= 2;
                if (depth <= 0) {
                    ++pos;
                    return;
                }
            } else if (t == "(") {
                skipBalanced('(', ')');
                continue;
            } else if (t == ";" || t == "{") {
                return; // not really a template argument list; bail
            }
            ++pos;
        }
    }

    void skipToSemi()
    {
        while (!done()) {
            if (at("{"))
                skipBalanced('{', '}');
            else if (at("(")) {
                skipBalanced('(', ')');
            } else if (at(";")) {
                ++pos;
                return;
            } else {
                ++pos;
            }
        }
    }

    // ---- declarations -------------------------------------------------

    void parseDecls(const std::string& className)
    {
        while (!done()) {
            const std::string& t = cur().text;
            if (t == "}") {
                ++pos;
                return;
            }
            if (t == "namespace") {
                ++pos;
                while (atIdent() || at("::"))
                    ++pos;
                if (at("{")) {
                    ++pos;
                    parseDecls(className);
                } else {
                    skipToSemi(); // namespace alias
                }
                continue;
            }
            if (t == "class" || t == "struct" || t == "union") {
                parseRecord(className);
                continue;
            }
            if (t == "enum") {
                ++pos;
                while (!done() && !at("{") && !at(";"))
                    ++pos;
                if (at("{"))
                    skipBalanced('{', '}');
                skipToSemi();
                continue;
            }
            if (t == "template") {
                ++pos;
                if (at("<"))
                    skipAngles();
                continue;
            }
            if (t == "using" || t == "typedef" || t == "static_assert" ||
                t == "friend" || t == "extern") {
                // `extern "C" {` opens a plain scope we can recurse into.
                ++pos;
                if (t == "extern" && !done() && cur().kind == Tok::String) {
                    ++pos;
                    if (at("{")) {
                        ++pos;
                        parseDecls(className);
                        continue;
                    }
                }
                if (t == "extern")
                    continue; // plain storage-class; part of a decl
                skipToSemi();
                continue;
            }
            if (t == "public" || t == "private" || t == "protected") {
                ++pos;
                if (at(":"))
                    ++pos;
                continue;
            }
            if (t == ";") {
                ++pos;
                continue;
            }
            parseOneDecl(className);
        }
    }

    void parseRecord(const std::string& outer)
    {
        ++pos; // class/struct/union
        std::string name;
        while (!done()) {
            const std::string& t = cur().text;
            if (cur().kind == Tok::Ident && t != "final" &&
                t != "alignas") {
                name = t;
                ++pos;
            } else if (t == "alignas") {
                ++pos;
                if (at("("))
                    skipBalanced('(', ')');
            } else if (t == "<") {
                skipAngles(); // specialization arguments
            } else {
                break;
            }
        }
        if (at(";")) { // forward declaration
            ++pos;
            return;
        }
        if (at(":")) { // base clause
            while (!done() && !at("{") && !at(";"))
                ++pos;
        }
        if (at("{")) {
            ++pos;
            std::string qual =
                outer.empty() ? name : outer + "::" + name;
            parseDecls(qual);
            skipToSemi(); // trailing declarator list / the ';'
            return;
        }
        // `struct X y;` style elaborated declaration; treat as a decl.
        skipToSemi();
    }

    /**
     * Parse one declaration at namespace/class scope. Recognizes
     * function declarations/definitions (identifier + balanced parens +
     * trailing qualifier/annotation run ending in `{` or `;`) and
     * AP_LOCK_LEVEL-registered members; everything else is skipped to
     * its terminating `;`.
     */
    void parseOneDecl(const std::string& className)
    {
        std::string lastIdent;
        std::string qualPrefix; // from `Type::` pairs before the name
        bool tilde = false;
        while (!done()) {
            const Token& t = cur();
            const std::string& s = t.text;
            if (s == ";") {
                ++pos;
                return;
            }
            if (s == "}") // stray close: let the caller see it
                return;
            if (s == "=") {
                skipToSemi();
                return;
            }
            if (s == "{") { // brace init without '='
                skipBalanced('{', '}');
                continue;
            }
            if (s == "[") {
                // attribute [[...]] or array declarator [N]
                skipBalanced('[', ']');
                continue;
            }
            if (s == "~") {
                tilde = true;
                ++pos;
                continue;
            }
            if (s == "AP_LOCK_LEVEL" && !lastIdent.empty()) {
                ++pos;
                std::string arg;
                if (at("(")) {
                    ++pos;
                    if (!done())
                        arg = unquote(cur().text);
                    skipToCloseParen();
                }
                m.locks.push_back({lastIdent, arg, t.line});
                continue;
            }
            if (t.kind == Tok::Ident) {
                if (s == "operator") {
                    // fold the operator symbol into the name
                    lastIdent = "operator";
                    ++pos;
                    while (!done() && !at("("))
                        ++pos;
                    continue;
                }
                lastIdent = tilde ? "~" + s : s;
                tilde = false;
                ++pos;
                if (at("<")) {
                    size_t save = pos;
                    skipAngles();
                    if (done() || at(";") || at("{"))
                        pos = save; // was a comparison/mishap; back off
                }
                if (at("::")) {
                    qualPrefix = lastIdent;
                    // leave: next ident becomes the name
                }
                continue;
            }
            if (s == "(") {
                if (lastIdent.empty() || kNotCalls.count(lastIdent)) {
                    skipBalanced('(', ')');
                    continue;
                }
                parseFuncTail(className, qualPrefix, lastIdent, t.line);
                return;
            }
            ++pos;
        }
    }

    void skipToCloseParen()
    {
        int depth = 1;
        while (!done()) {
            if (at("("))
                ++depth;
            else if (at(")") && --depth == 0) {
                ++pos;
                return;
            }
            ++pos;
        }
    }

    /**
     * pos is at the '(' of a candidate function's parameter list.
     * Consume params, the trailing qualifier/annotation run, and the
     * body or ';'. Records the Func either way.
     */
    void parseFuncTail(const std::string& className,
                       const std::string& qualPrefix,
                       const std::string& name, int line)
    {
        Func f;
        f.name = name;
        f.className = qualPrefix.empty() ? className : qualPrefix;
        f.line = line;
        skipBalanced('(', ')');

        while (!done()) {
            const Token& t = cur();
            const std::string& s = t.text;
            if (s == ";") {
                ++pos;
                break;
            }
            if (s == "{") {
                f.hasBody = true;
                parseBody(f);
                break;
            }
            if (kAnnotations.count(s)) {
                Annotation a;
                a.name = s;
                a.line = t.line;
                ++pos;
                if (at("(")) {
                    ++pos;
                    if (!done())
                        a.arg = unquote(cur().text);
                    int depth = 1;
                    while (!done()) {
                        if (at("(")) {
                            ++depth;
                        } else if (at(")")) {
                            if (--depth == 0) {
                                ++pos;
                                break;
                            }
                        } else if (depth == 1 &&
                                   (cur().kind == Tok::String ||
                                    cur().kind == Tok::Ident)) {
                            a.args.push_back(unquote(cur().text));
                        }
                        ++pos;
                    }
                }
                if (s == "AP_LOCK_LEVEL")
                    m.locks.push_back({f.name, a.arg, a.line});
                f.anns.push_back(a);
                continue;
            }
            if (t.kind == Tok::Ident && kTrailingQuals.count(s)) {
                ++pos;
                if (at("("))
                    skipBalanced('(', ')'); // noexcept(expr)
                continue;
            }
            if (s == "&" || s == "&&") {
                ++pos;
                continue;
            }
            if (s == "->") { // trailing return type
                ++pos;
                while (!done() && !at("{") && !at(";") && !at("=")) {
                    if (at("<"))
                        skipAngles();
                    else if (at("("))
                        skipBalanced('(', ')');
                    else
                        ++pos;
                }
                continue;
            }
            if (s == "=") { // = default / = delete / = 0
                skipToSemi();
                break;
            }
            if (s == ":") { // constructor initializer list
                ++pos;
                skipCtorInit();
                continue; // lands on the body '{'
            }
            if (s == "(") { // not actually a function after all
                skipBalanced('(', ')');
                continue;
            }
            // Unrecognized token between ')' and the body (e.g. a
            // declarator continuation) — this was not a function.
            skipToSemi();
            return;
        }
        m.funcs.push_back(std::move(f));
    }

    /** After the ':' of a ctor init list; stop at the body '{'. */
    void skipCtorInit()
    {
        while (!done()) {
            // member or base name (possibly qualified / templated)
            while (atIdent() || at("::") || at("~"))
                ++pos;
            if (at("<"))
                skipAngles();
            while (atIdent() || at("::"))
                ++pos;
            if (at("("))
                skipBalanced('(', ')');
            else if (at("{"))
                skipBalanced('{', '}');
            if (at("...")) // pack expansion
                ++pos;
            if (at(",")) {
                ++pos;
                continue;
            }
            return; // expect the body '{' next
        }
    }

    // ---- function bodies ----------------------------------------------

    struct OpenScope
    {
        int idx;
        bool braced;
    };

    void parseBody(Func& f)
    {
        f.bodyBegin = pos; // at '{'
        f.scopes.push_back({-1, ScopeKind::Body, {}, cur().line});
        std::vector<OpenScope> stack{{0, true}};
        int braceDepth = 1;
        int parenDepth = 0;
        ++pos;

        auto topScope = [&]() { return stack.back().idx; };
        auto popUnbraced = [&]() {
            while (stack.size() > 1 && !stack.back().braced)
                stack.pop_back();
        };
        auto pushScope = [&](ScopeKind k,
                             std::vector<std::string> cond, int line,
                             bool braced) {
            f.scopes.push_back(
                {topScope(), k, std::move(cond), line});
            stack.push_back(
                {static_cast<int>(f.scopes.size()) - 1, braced});
        };

        while (!done() && braceDepth > 0) {
            const Token& t = cur();
            const std::string& s = t.text;

            if (s == "{") {
                pushScope(ScopeKind::Body, {}, t.line, true);
                ++braceDepth;
                ++pos;
                continue;
            }
            if (s == "}") {
                --braceDepth;
                popUnbraced();
                if (stack.size() > 1)
                    stack.pop_back();
                ++pos;
                continue;
            }
            if (s == "(") {
                ++parenDepth;
                ++pos;
                continue;
            }
            if (s == ")") {
                --parenDepth;
                ++pos;
                continue;
            }
            if (s == ";" && parenDepth == 0) {
                popUnbraced();
                ++pos;
                continue;
            }
            if (s == "[") {
                // [[attribute]] / lambda introducer / subscript
                if (pos + 1 < toks.size() &&
                    toks[pos + 1].text == "[") {
                    skipBalanced('[', ']');
                    continue;
                }
                if (isLambdaIntroducer()) {
                    parseLambdaHead(f, stack, braceDepth, t.line);
                    continue;
                }
                ++pos;
                continue;
            }
            if (t.kind == Tok::Ident &&
                (s == "if" || s == "while" || s == "for" ||
                 s == "switch")) {
                ScopeKind k = (s == "if" || s == "switch")
                                  ? ScopeKind::If
                                  : ScopeKind::Loop;
                ++pos;
                if (at("constexpr"))
                    ++pos;
                std::vector<std::string> cond;
                if (at("(")) {
                    int d = 0;
                    while (!done()) {
                        if (at("("))
                            ++d;
                        else if (at(")") && --d == 0) {
                            ++pos;
                            break;
                        } else if (cur().kind == Tok::Ident) {
                            cond.push_back(cur().text);
                        }
                        ++pos;
                    }
                }
                if (at("{")) {
                    pushScope(k, std::move(cond), t.line, true);
                    ++braceDepth;
                    ++pos;
                } else {
                    pushScope(k, std::move(cond), t.line, false);
                }
                continue;
            }
            if (t.kind == Tok::Ident && s == "do") {
                ++pos;
                if (at("{")) {
                    pushScope(ScopeKind::Loop, {}, t.line, true);
                    ++braceDepth;
                    ++pos;
                } else {
                    pushScope(ScopeKind::Loop, {}, t.line, false);
                }
                continue;
            }
            if (t.kind == Tok::Ident && s == "else") {
                ++pos;
                if (at("if"))
                    continue; // handled by the `if` branch above
                if (at("{")) {
                    pushScope(ScopeKind::Else, {}, t.line, true);
                    ++braceDepth;
                    ++pos;
                } else {
                    pushScope(ScopeKind::Else, {}, t.line, false);
                }
                continue;
            }
            if (t.kind == Tok::Ident && !kNotCalls.count(s) &&
                pos + 1 < toks.size() && toks[pos + 1].text == "(") {
                Call c;
                c.callee = s;
                c.receiver = receiverBefore(pos);
                c.tokIndex = pos;
                c.scope = topScope();
                c.line = t.line;
                f.calls.push_back(std::move(c));
                ++pos;
                continue;
            }
            ++pos;
        }
        f.bodyEnd = pos;
    }

    /** Is the '[' at pos a lambda introducer (vs. a subscript)? */
    bool isLambdaIntroducer() const
    {
        if (pos == 0)
            return true;
        const Token& p = toks[pos - 1];
        if (p.kind == Tok::Ident) {
            return p.text == "return" || p.text == "co_return";
        }
        if (p.kind != Tok::Punct)
            return false;
        static const std::set<std::string> kBefore = {
            "(", ",", "=", "{", "}", ";", "&&", "||", "!",
            ":", "?", "<", ">", "return",
        };
        return kBefore.count(p.text) > 0;
    }

    /**
     * pos is at a lambda's '['. Consume the introducer, parameter
     * list, and qualifiers; push a Lambda scope on the body '{'.
     */
    void parseLambdaHead(Func& f, std::vector<OpenScope>& stack,
                         int& braceDepth, int line)
    {
        skipBalanced('[', ']');
        if (at("("))
            skipBalanced('(', ')');
        while (!done() && !at("{") && !at(";") && !at(",") && !at(")")) {
            if (at("->")) {
                ++pos;
                while (!done() && !at("{") && !at(";")) {
                    if (at("<"))
                        skipAngles();
                    else
                        ++pos;
                }
            } else {
                ++pos;
            }
        }
        if (at("{")) {
            f.scopes.push_back(
                {stack.back().idx, ScopeKind::Lambda, {}, line});
            stack.push_back(
                {static_cast<int>(f.scopes.size()) - 1, true});
            ++braceDepth;
            ++pos;
        }
    }

    /** Last identifier of the receiver chain before a call at @p i. */
    std::string receiverBefore(size_t i) const
    {
        if (i == 0)
            return "";
        const Token& p = toks[i - 1];
        if (p.text != "." && p.text != "->" && p.text != "::")
            return "";
        size_t j = i - 2;
        if (j >= toks.size())
            return "";
        if (toks[j].kind == Tok::Ident)
            return toks[j].text;
        if (toks[j].text == ")" || toks[j].text == "]") {
            // walk back over one balanced group to the ident before it
            const std::string close = toks[j].text;
            const std::string open = close == ")" ? "(" : "[";
            int depth = 0;
            while (true) {
                if (toks[j].text == close)
                    ++depth;
                else if (toks[j].text == open && --depth == 0)
                    break;
                if (j == 0)
                    return "";
                --j;
            }
            if (j > 0 && toks[j - 1].kind == Tok::Ident)
                return toks[j - 1].text;
        }
        return "";
    }

    // ---- waiver comments -----------------------------------------------

    void parseWaivers()
    {
        for (const auto& c : m.lx.comments) {
            std::string text = trim(c.text);
            size_t tag = text.find("aplint:");
            if (tag == std::string::npos)
                continue;
            std::string body = trim(text.substr(tag + 7));
            bool fileScope = body.rfind("allow-file(", 0) == 0;
            bool lineScope = body.rfind("allow(", 0) == 0;
            if (!fileScope && !lineScope)
                continue;
            Waiver w;
            w.line = c.line;
            w.fileScope = fileScope;
            size_t open = body.find('(');
            size_t close = body.find(')', open);
            if (close == std::string::npos) {
                w.malformed = true;
            } else {
                w.rule = trim(body.substr(open + 1, close - open - 1));
                w.reason = trim(body.substr(close + 1));
                if (w.rule.empty() || w.reason.empty())
                    w.malformed = true;
            }
            m.waivers.push_back(std::move(w));
        }
    }
};

} // namespace

FileModel
parseFile(const std::string& path, const std::string& source)
{
    FileModel m;
    m.path = path;
    m.lx = lex(source);
    Parser(m).run();
    return m;
}

} // namespace ap::lint
