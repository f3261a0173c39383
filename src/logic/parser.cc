#include "src/logic/parser.h"

#include <cctype>
#include <vector>

#include "src/common/strings.h"

namespace accltl {
namespace logic {

namespace {

enum class TokKind {
  kIdent,
  kString,
  kInt,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kEq,
  kNeq,
  kEnd,
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
  size_t offset = 0;  // of the token's first character
  int64_t int_value = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Status Tokenize(std::vector<Token>* out) {
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      size_t start = i;
      if (c == '(') {
        out->push_back({TokKind::kLParen, "(", start});
        ++i;
      } else if (c == ')') {
        out->push_back({TokKind::kRParen, ")", start});
        ++i;
      } else if (c == ',') {
        out->push_back({TokKind::kComma, ",", start});
        ++i;
      } else if (c == '.') {
        out->push_back({TokKind::kDot, ".", start});
        ++i;
      } else if (c == '=') {
        out->push_back({TokKind::kEq, "=", start});
        ++i;
      } else if (c == '!' && i + 1 < text_.size() && text_[i + 1] == '=') {
        out->push_back({TokKind::kNeq, "!=", start});
        i += 2;
      } else if (c == '"') {
        size_t j = i + 1;
        while (j < text_.size() && text_[j] != '"') ++j;
        if (j >= text_.size()) {
          return Status::InvalidArgument("unterminated string literal");
        }
        out->push_back(
            {TokKind::kString, text_.substr(i + 1, j - i - 1), start});
        i = j + 1;
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && i + 1 < text_.size() &&
                  std::isdigit(static_cast<unsigned char>(text_[i + 1])))) {
        size_t j = i + (c == '-' ? 1 : 0);
        while (j < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[j]))) {
          ++j;
        }
        Token t;
        t.kind = TokKind::kInt;
        t.text = text_.substr(i, j - i);
        t.offset = start;
        t.int_value = std::stoll(t.text);
        out->push_back(std::move(t));
        i = j;
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        out->push_back({TokKind::kIdent, text_.substr(i, j - i), start});
        i = j;
      } else {
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "'");
      }
    }
    out->push_back({TokKind::kEnd, "", text_.size()});
    return Status::OK();
  }

 private:
  const std::string& text_;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const schema::Schema& schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  Result<PosFormulaPtr> Parse() {
    Result<PosFormulaPtr> f = ParseFormulaLevel();
    if (!f.ok()) return f;
    if (Peek().kind != TokKind::kEnd) {
      return Status::InvalidArgument("trailing input after formula: '" +
                                     Peek().text + "'");
    }
    return f;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  Token Take() { return tokens_[pos_++]; }

  bool TakeIf(TokKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool TakeKeyword(const std::string& kw) {
    if (Peek().kind == TokKind::kIdent && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Every recursion (parentheses, EXISTS bodies) passes through here.
  Result<PosFormulaPtr> ParseFormulaLevel() {
    if (depth_ == kMaxParseNesting) {
      return Status::InvalidArgument(
          "formula nests deeper than " + std::to_string(kMaxParseNesting) +
          " levels at offset " + std::to_string(Peek().offset));
    }
    ++depth_;
    Result<PosFormulaPtr> f = ParseQuantified();
    --depth_;
    return f;
  }

  Result<PosFormulaPtr> ParseQuantified() {
    if (TakeKeyword("EXISTS")) {
      std::vector<std::string> vars;
      while (true) {
        if (Peek().kind != TokKind::kIdent) {
          return Status::InvalidArgument("expected variable after EXISTS");
        }
        vars.push_back(Take().text);
        if (!TakeIf(TokKind::kComma)) break;
      }
      if (!TakeIf(TokKind::kDot)) {
        return Status::InvalidArgument("expected '.' after EXISTS variables");
      }
      Result<PosFormulaPtr> body = ParseFormulaLevel();
      if (!body.ok()) return body;
      return PosFormula::Exists(std::move(vars), body.value());
    }
    return ParseDisjunct();
  }

  Result<PosFormulaPtr> ParseDisjunct() {
    Result<PosFormulaPtr> first = ParseConjunct();
    if (!first.ok()) return first;
    std::vector<PosFormulaPtr> parts = {first.value()};
    while (TakeKeyword("OR")) {
      Result<PosFormulaPtr> next = ParseConjunct();
      if (!next.ok()) return next;
      parts.push_back(next.value());
    }
    return PosFormula::Or(std::move(parts));
  }

  Result<PosFormulaPtr> ParseConjunct() {
    Result<PosFormulaPtr> first = ParseUnit();
    if (!first.ok()) return first;
    std::vector<PosFormulaPtr> parts = {first.value()};
    while (TakeKeyword("AND")) {
      Result<PosFormulaPtr> next = ParseUnit();
      if (!next.ok()) return next;
      parts.push_back(next.value());
    }
    return PosFormula::And(std::move(parts));
  }

  Result<PosFormulaPtr> ParseUnit() {
    if (TakeIf(TokKind::kLParen)) {
      Result<PosFormulaPtr> inner = ParseFormulaLevel();
      if (!inner.ok()) return inner;
      if (!TakeIf(TokKind::kRParen)) {
        return Status::InvalidArgument("expected ')'");
      }
      return inner;
    }
    if (TakeKeyword("TRUE")) return PosFormula::True();
    if (TakeKeyword("FALSE")) return PosFormula::False();
    if (TakeKeyword("EXISTS")) {
      --pos_;  // EXISTS nested without parens: let formula level handle
      return ParseFormulaLevel();
    }

    // Predicate atom: Ident '(' ... ')' with an uppercase-ish name, OR a
    // term-comparison.
    if (Peek().kind == TokKind::kIdent && Peek(1).kind == TokKind::kLParen &&
        LooksLikePredicate(Peek().text)) {
      return ParseAtom();
    }
    return ParseComparison();
  }

  static bool LooksLikePredicate(const std::string& name) {
    return !name.empty() && (std::isupper(static_cast<unsigned char>(
                                 name[0])) != 0);
  }

  Result<PredicateRef> ResolvePredicate(const std::string& name) {
    if (StartsWith(name, "IsBind_")) {
      Result<schema::AccessMethodId> m =
          schema_.FindMethod(name.substr(7));
      if (!m.ok()) return m.status();
      return Bind(m.value());
    }
    auto try_suffix = [&](const std::string& suffix,
                          PredSpace space) -> Result<PredicateRef> {
      std::string base = name.substr(0, name.size() - suffix.size());
      Result<schema::RelationId> r = schema_.FindRelation(base);
      if (!r.ok()) return r.status();
      return PredicateRef{space, r.value()};
    };
    if (name.size() > 4 && name.substr(name.size() - 4) == "_pre") {
      return try_suffix("_pre", PredSpace::kPre);
    }
    if (name.size() > 5 && name.substr(name.size() - 5) == "_post") {
      return try_suffix("_post", PredSpace::kPost);
    }
    Result<schema::RelationId> r = schema_.FindRelation(name);
    if (!r.ok()) return r.status();
    return Plain(r.value());
  }

  Result<PosFormulaPtr> ParseAtom() {
    std::string name = Take().text;
    Result<PredicateRef> pred = ResolvePredicate(name);
    if (!pred.ok()) return pred.status();
    if (!TakeIf(TokKind::kLParen)) {
      return Status::InvalidArgument("expected '(' after predicate " + name);
    }
    std::vector<Term> terms;
    if (!TakeIf(TokKind::kRParen)) {
      while (true) {
        Result<Term> t = ParseTerm();
        if (!t.ok()) return t.status();
        terms.push_back(t.value());
        if (TakeIf(TokKind::kRParen)) break;
        if (!TakeIf(TokKind::kComma)) {
          return Status::InvalidArgument("expected ',' or ')' in atom " +
                                         name);
        }
      }
    }
    PosFormulaPtr atom = PosFormula::MakeAtom(pred.value(), std::move(terms));
    Status s = atom->Validate(schema_);
    if (!s.ok()) return s;
    return atom;
  }

  Result<PosFormulaPtr> ParseComparison() {
    Result<Term> lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    if (TakeIf(TokKind::kEq)) {
      Result<Term> rhs = ParseTerm();
      if (!rhs.ok()) return rhs.status();
      return PosFormula::Eq(lhs.value(), rhs.value());
    }
    if (TakeIf(TokKind::kNeq)) {
      Result<Term> rhs = ParseTerm();
      if (!rhs.ok()) return rhs.status();
      return PosFormula::Neq(lhs.value(), rhs.value());
    }
    return Status::InvalidArgument("expected '=' or '!=' after term");
  }

  Result<Term> ParseTerm() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokKind::kString: {
        Term out = Term::Const(Value::Str(t.text));
        ++pos_;
        return out;
      }
      case TokKind::kInt: {
        Term out = Term::Const(Value::Int(t.int_value));
        ++pos_;
        return out;
      }
      case TokKind::kIdent: {
        if (t.text == "true" || t.text == "false") {
          Term out = Term::Const(Value::Bool(t.text == "true"));
          ++pos_;
          return out;
        }
        if (std::islower(static_cast<unsigned char>(t.text[0])) ||
            t.text[0] == '_') {
          Term out = Term::Var(t.text);
          ++pos_;
          return out;
        }
        return Status::InvalidArgument(
            "expected a term, found predicate-like identifier '" + t.text +
            "' (variables start lowercase)");
      }
      default:
        return Status::InvalidArgument("expected a term, found '" + t.text +
                                       "'");
    }
  }

  std::vector<Token> tokens_;
  const schema::Schema& schema_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

}  // namespace

Result<PosFormulaPtr> ParseFormula(const std::string& text,
                                   const schema::Schema& schema) {
  std::vector<Token> tokens;
  Lexer lexer(text);
  Status s = lexer.Tokenize(&tokens);
  if (!s.ok()) return s;
  Parser parser(std::move(tokens), schema);
  return parser.Parse();
}

}  // namespace logic
}  // namespace accltl
