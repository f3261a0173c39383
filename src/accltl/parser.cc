#include "src/accltl/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "src/logic/parser.h"

namespace accltl {
namespace acc {

namespace {

enum class TokKind {
  kNot,
  kNext,
  kEventually,
  kGlobally,
  kUntil,
  kAnd,
  kOr,
  kLParen,
  kRParen,
  kSentence,  // [ ... ]
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t offset;  // of the token's first character
};

Status Tokenize(const std::string& text, std::vector<Token>* out) {
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (c == '(') {
      out->push_back({TokKind::kLParen, "(", start});
      ++i;
      continue;
    }
    if (c == ')') {
      out->push_back({TokKind::kRParen, ")", start});
      ++i;
      continue;
    }
    if (c == '[') {
      int depth = 1;
      size_t j = i + 1;
      while (j < text.size() && depth > 0) {
        if (text[j] == '[') ++depth;
        if (text[j] == ']') --depth;
        ++j;
      }
      if (depth != 0) {
        return Status::InvalidArgument("unbalanced '[' in AccLTL formula");
      }
      out->push_back(
          {TokKind::kSentence, text.substr(i + 1, j - i - 2), start});
      i = j;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) != 0)) {
        ++j;
      }
      std::string word = text.substr(i, j - i);
      i = j;
      if (word == "NOT") {
        out->push_back({TokKind::kNot, word, start});
      } else if (word == "X") {
        out->push_back({TokKind::kNext, word, start});
      } else if (word == "F") {
        out->push_back({TokKind::kEventually, word, start});
      } else if (word == "G") {
        out->push_back({TokKind::kGlobally, word, start});
      } else if (word == "U") {
        out->push_back({TokKind::kUntil, word, start});
      } else if (word == "AND") {
        out->push_back({TokKind::kAnd, word, start});
      } else if (word == "OR") {
        out->push_back({TokKind::kOr, word, start});
      } else {
        return Status::InvalidArgument("unexpected word '" + word +
                                       "' in AccLTL formula (sentences go "
                                       "inside [...])");
      }
      continue;
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "' in AccLTL formula");
  }
  out->push_back({TokKind::kEnd, "", text.size()});
  return Status::OK();
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const schema::Schema& schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  Result<AccPtr> Parse() {
    Result<AccPtr> f = ParseUntil();
    if (!f.ok()) return f;
    if (Peek().kind != TokKind::kEnd) {
      return Status::InvalidArgument("trailing input in AccLTL formula");
    }
    return f;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  bool TakeIf(TokKind k) {
    if (Peek().kind == k) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Runs `parse` one nesting level deeper, right after its opening
  /// token (NOT, X, F, G, '(' or U). Every recursion of the descent goes
  /// through here, so the cap bounds both the stack and the depth of
  /// the returned tree.
  Result<AccPtr> Nested(Result<AccPtr> (Parser::*parse)()) {
    if (depth_ == logic::kMaxParseNesting) {
      return Status::InvalidArgument(
          "AccLTL formula nests deeper than " +
          std::to_string(logic::kMaxParseNesting) + " levels at offset " +
          std::to_string(tokens_[pos_ - 1].offset));
    }
    ++depth_;
    Result<AccPtr> f = (this->*parse)();
    --depth_;
    return f;
  }

  Result<AccPtr> ParseUntil() {
    Result<AccPtr> lhs = ParseOr();
    if (!lhs.ok()) return lhs;
    if (TakeIf(TokKind::kUntil)) {
      Result<AccPtr> rhs = Nested(&Parser::ParseUntil);  // right-assoc.
      if (!rhs.ok()) return rhs;
      return AccFormula::Until(lhs.value(), rhs.value());
    }
    return lhs;
  }

  Result<AccPtr> ParseOr() {
    Result<AccPtr> first = ParseAnd();
    if (!first.ok()) return first;
    std::vector<AccPtr> parts = {first.value()};
    while (TakeIf(TokKind::kOr)) {
      Result<AccPtr> next = ParseAnd();
      if (!next.ok()) return next;
      parts.push_back(next.value());
    }
    return parts.size() == 1 ? parts[0] : AccFormula::Or(std::move(parts));
  }

  Result<AccPtr> ParseAnd() {
    Result<AccPtr> first = ParseUnary();
    if (!first.ok()) return first;
    std::vector<AccPtr> parts = {first.value()};
    while (TakeIf(TokKind::kAnd)) {
      Result<AccPtr> next = ParseUnary();
      if (!next.ok()) return next;
      parts.push_back(next.value());
    }
    return parts.size() == 1 ? parts[0] : AccFormula::And(std::move(parts));
  }

  Result<AccPtr> ParseUnary() {
    if (TakeIf(TokKind::kNot)) {
      Result<AccPtr> inner = Nested(&Parser::ParseUnary);
      if (!inner.ok()) return inner;
      return AccFormula::Not(inner.value());
    }
    if (TakeIf(TokKind::kNext)) {
      Result<AccPtr> inner = Nested(&Parser::ParseUnary);
      if (!inner.ok()) return inner;
      return AccFormula::Next(inner.value());
    }
    if (TakeIf(TokKind::kEventually)) {
      Result<AccPtr> inner = Nested(&Parser::ParseUnary);
      if (!inner.ok()) return inner;
      return AccFormula::Eventually(inner.value());
    }
    if (TakeIf(TokKind::kGlobally)) {
      Result<AccPtr> inner = Nested(&Parser::ParseUnary);
      if (!inner.ok()) return inner;
      return AccFormula::Globally(inner.value());
    }
    if (TakeIf(TokKind::kLParen)) {
      Result<AccPtr> inner = Nested(&Parser::ParseUntil);
      if (!inner.ok()) return inner;
      if (!TakeIf(TokKind::kRParen)) {
        return Status::InvalidArgument("expected ')' in AccLTL formula");
      }
      return inner;
    }
    if (Peek().kind == TokKind::kSentence) {
      std::string body = Peek().text;
      ++pos_;
      Result<logic::PosFormulaPtr> sentence =
          logic::ParseFormula(body, schema_);
      if (!sentence.ok()) return sentence.status();
      if (!sentence.value()->IsSentence()) {
        return Status::InvalidArgument(
            "AccLTL atom has free variables: [" + body + "]");
      }
      return AccFormula::Atom(sentence.value());
    }
    return Status::InvalidArgument("expected an AccLTL sub-formula");
  }

  std::vector<Token> tokens_;
  const schema::Schema& schema_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<AccPtr> ParseAccFormula(const std::string& text,
                               const schema::Schema& schema) {
  std::vector<Token> tokens;
  ACCLTL_RETURN_IF_ERROR(Tokenize(text, &tokens));
  Parser parser(std::move(tokens), schema);
  return parser.Parse();
}

}  // namespace acc
}  // namespace accltl
