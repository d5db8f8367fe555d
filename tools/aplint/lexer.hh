/**
 * @file
 * A lightweight C++ tokenizer for aplint. No preprocessing: macro
 * names (including the AP_* contract annotations) appear verbatim in
 * the token stream, which is exactly what the rules key on.
 * Preprocessor directives are consumed whole, comments are collected
 * separately for waiver scanning.
 */

#ifndef APLINT_LEXER_HH
#define APLINT_LEXER_HH

#include <string>
#include <vector>

namespace ap::lint {

/** Token classification; Punct covers all operators and separators. */
enum class Tok { Ident, Number, String, Char, Punct };

/** One token with its source position. */
struct Token
{
    Tok kind;
    std::string text;
    int line = 0;
};

/** One comment, kept aside for waiver parsing. */
struct Comment
{
    std::string text; ///< without the // or /* */ framing
    int line = 0;     ///< line the comment starts on
};

/** Result of tokenizing one file. */
struct LexResult
{
    std::vector<Token> tokens;
    std::vector<Comment> comments;
};

/** Tokenize @p source (named @p file for diagnostics only). */
LexResult lex(const std::string& source);

} // namespace ap::lint

#endif // APLINT_LEXER_HH
