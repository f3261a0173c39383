#ifndef ACCLTL_LOGIC_PARSER_H_
#define ACCLTL_LOGIC_PARSER_H_

#include <cstddef>
#include <string>

#include "src/common/status.h"
#include "src/logic/formula.h"

namespace accltl {
namespace logic {

/// Parses a textual FO∃+(≠) formula against a schema's vocabulary.
///
/// Grammar (whitespace-insensitive, keywords uppercase):
///   formula  := 'EXISTS' var (',' var)* '.' formula | disjunct
///   disjunct := conjunct ('OR' conjunct)*
///   conjunct := unit ('AND' unit)*
///   unit     := '(' formula ')' | 'TRUE' | 'FALSE'
///             | pred '(' [term (',' term)*] ')'
///             | term ('=' | '!=') term
///   pred     := Name            (plain schema relation)
///             | Name '_pre' | Name '_post'
///             | 'IsBind_' MethodName
///   term     := identifier starting lowercase        (variable)
///             | '"' chars '"'                        (string constant)
///             | ['-'] digits                         (int constant)
///             | 'true' | 'false'                     (bool constant)
///
/// Examples:
///   EXISTS n, p . Mobile_pre(n, p, s, ph) AND IsBind_AcM1(n)
///   EXISTS x . R(x, "Jones") AND x != 3
///
/// Nesting (parentheses and EXISTS bodies) deeper than kMaxParseNesting
/// is an InvalidArgument naming the offending character offset, never a
/// stack overflow.
Result<PosFormulaPtr> ParseFormula(const std::string& text,
                                   const schema::Schema& schema);

/// Nesting cap shared by the FO and AccLTL parsers (recursive descent).
inline constexpr size_t kMaxParseNesting = 256;

}  // namespace logic
}  // namespace accltl

#endif  // ACCLTL_LOGIC_PARSER_H_
