#ifndef ACCLTL_ACCLTL_PARSER_H_
#define ACCLTL_ACCLTL_PARSER_H_

#include <string>

#include "src/accltl/formula.h"
#include "src/common/status.h"

namespace accltl {
namespace acc {

/// Parses a textual AccLTL formula. Atomic sentences are enclosed in
/// square brackets and parsed with logic::ParseFormula.
///
/// Grammar (precedence low to high: U, OR, AND, prefix ops):
///   acc    := or_ ('U' or_)*                  (right-associative)
///   or_    := and_ ('OR' and_)*
///   and_   := unary ('AND' unary)*
///   unary  := 'NOT' unary | 'X' unary | 'F' unary | 'G' unary
///           | '(' acc ')' | '[' sentence ']'
///
/// Example (the intro's running property):
///   [NOT EXISTS n, p, s, ph . Mobile_pre(n,p,s,ph)]
///     U [EXISTS n, s, p, h . IsBind_AcM1(n) AND Address_pre(s,p,n,h)]
///
/// Prefix operators, parentheses and Until right operands nested deeper
/// than logic::kMaxParseNesting are an InvalidArgument naming the
/// character offset, never a stack overflow.
Result<AccPtr> ParseAccFormula(const std::string& text,
                               const schema::Schema& schema);

}  // namespace acc
}  // namespace accltl

#endif  // ACCLTL_ACCLTL_PARSER_H_
