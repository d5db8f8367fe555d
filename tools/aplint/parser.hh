/**
 * @file
 * A declaration/scope parser over the aplint token stream. It is not a
 * C++ front end: it recognizes just enough structure for the protocol
 * rules — functions and their trailing AP_* annotations, lock-member
 * registrations, control-flow scopes with their condition identifiers,
 * call sites with receivers, and aplint waiver comments.
 */

#ifndef APLINT_PARSER_HH
#define APLINT_PARSER_HH

#include "lexer.hh"

#include <string>
#include <vector>

namespace ap::lint {

/** One trailing AP_* contract macro on a declaration. */
struct Annotation
{
    std::string name; ///< e.g. "AP_LOCKSTEP"
    std::string arg;  ///< first string argument, unquoted; "" if none
    /** All string arguments in order (AP_TRANSITIONS takes several). */
    std::vector<std::string> args;
    int line = 0;
};

/** Control-flow scope kinds that matter to the rules. */
enum class ScopeKind { Body, If, Else, Loop, Lambda };

/** A node in a function's scope tree. */
struct ScopeNode
{
    int parent = -1; ///< index into Func::scopes, -1 for the body root
    ScopeKind kind = ScopeKind::Body;
    std::vector<std::string> condIdents; ///< identifiers in the condition
    int line = 0;
};

/** One call site inside a function body. */
struct Call
{
    std::string callee;   ///< identifier directly before the '('
    std::string receiver; ///< last identifier of the receiver chain, or ""
    size_t tokIndex = 0;  ///< index of the callee token in the file stream
    int scope = 0;        ///< innermost enclosing scope
    int line = 0;
};

/** A parsed function (or method, or test body). */
struct Func
{
    std::string name;      ///< unqualified name
    std::string className; ///< enclosing class or out-of-line qualifier
    std::vector<Annotation> anns;
    std::vector<ScopeNode> scopes; ///< scopes[0] is the body root
    std::vector<Call> calls;       ///< in token order
    size_t bodyBegin = 0;          ///< token index of the body '{'
    size_t bodyEnd = 0;            ///< token index one past the body '}'
    bool hasBody = false;
    int line = 0;

    bool hasAnn(const std::string& n) const
    {
        for (const auto& a : anns)
            if (a.name == n)
                return true;
        return false;
    }
    const Annotation* findAnn(const std::string& n) const
    {
        for (const auto& a : anns)
            if (a.name == n)
                return &a;
        return nullptr;
    }
};

/** A member or accessor registered as a lock class via AP_LOCK_LEVEL. */
struct LockDecl
{
    std::string name;      ///< member or accessor identifier
    std::string lockClass; ///< e.g. "pt.bucket"
    int line = 0;
};

/** One allow(...) or allow-file(...) waiver comment. */
struct Waiver
{
    std::string rule;
    std::string reason;
    int line = 0;
    bool fileScope = false;
    bool malformed = false; ///< missing rule or reason
};

/** Everything aplint knows about one source file. */
struct FileModel
{
    std::string path;
    LexResult lx;
    std::vector<Func> funcs;
    std::vector<LockDecl> locks;
    std::vector<Waiver> waivers;
};

/** Parse one file's source text into the model. */
FileModel parseFile(const std::string& path, const std::string& source);

} // namespace ap::lint

#endif // APLINT_PARSER_HH
