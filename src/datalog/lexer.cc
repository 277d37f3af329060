#include "datalog/lexer.h"

#include <cctype>
#include <optional>

namespace pfql {
namespace datalog {

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kLParen:
      return "'('";
    case TokenKind::kRParen:
      return "')'";
    case TokenKind::kComma:
      return "','";
    case TokenKind::kPeriod:
      return "'.'";
    case TokenKind::kColonDash:
      return "':-'";
    case TokenKind::kAt:
      return "'@'";
    case TokenKind::kLess:
      return "'<'";
    case TokenKind::kGreater:
      return "'>'";
    case TokenKind::kLessEq:
      return "'<='";
    case TokenKind::kGreaterEq:
      return "'>='";
    case TokenKind::kEqEq:
      return "'=='";
    case TokenKind::kNotEq:
      return "'!='";
    case TokenKind::kIdent:
      return "identifier";
    case TokenKind::kVariable:
      return "variable";
    case TokenKind::kNumber:
      return "number";
    case TokenKind::kString:
      return "string";
    case TokenKind::kEof:
      return "end of input";
  }
  return "?";
}

std::string Token::Describe() const {
  std::string out = TokenKindToString(kind);
  if (kind == TokenKind::kIdent || kind == TokenKind::kVariable ||
      kind == TokenKind::kNumber || kind == TokenKind::kString) {
    out += " '" + text + "'";
  }
  return out + " at line " + std::to_string(line) + ", column " +
         std::to_string(column);
}

namespace {

Status LexError(size_t line, size_t column, const std::string& message) {
  return Status::ParseError(message + " at line " + std::to_string(line) +
                            ", column " + std::to_string(column));
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(std::string_view source,
                                      SourceSpan* error_span) {
  std::vector<Token> tokens;
  size_t line = 1, column = 1;
  size_t tok_line = 1, tok_column = 1;  // start of the token being scanned
  size_t i = 0;
  const size_t n = source.size();

  // Call after the token's characters have been consumed: the span runs
  // from the recorded token start to the current (one-past-end) position.
  auto push = [&](TokenKind kind, std::string text, Value value = Value()) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.value = std::move(value);
    t.line = tok_line;
    t.column = tok_column;
    t.span.begin = {tok_line, tok_column};
    t.span.end = {line, column};
    tokens.push_back(std::move(t));
  };
  auto fail = [&](size_t err_line, size_t err_column,
                  const std::string& message) -> Status {
    if (error_span != nullptr) {
      error_span->begin = {err_line, err_column};
      error_span->end = {err_line, err_column + 1};
    }
    return LexError(err_line, err_column, message);
  };
  auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k, ++i) {
      if (source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
  };

  while (i < n) {
    const char c = source[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '%' || c == '#') {
      while (i < n && source[i] != '\n') advance(1);
      continue;
    }
    tok_line = line;
    tok_column = column;
    if (c == '(') {
      advance(1);
      push(TokenKind::kLParen, "(");
      continue;
    }
    if (c == ')') {
      advance(1);
      push(TokenKind::kRParen, ")");
      continue;
    }
    if (c == ',') {
      advance(1);
      push(TokenKind::kComma, ",");
      continue;
    }
    if (c == '.') {
      // Distinguish the rule terminator from a decimal point inside a
      // number; numbers are handled below, so a bare '.' here terminates.
      advance(1);
      push(TokenKind::kPeriod, ".");
      continue;
    }
    if (c == ':') {
      if (i + 1 < n && source[i + 1] == '-') {
        advance(2);
        push(TokenKind::kColonDash, ":-");
        continue;
      }
      return fail(line, column, "expected ':-'");
    }
    if (c == '@') {
      advance(1);
      push(TokenKind::kAt, "@");
      continue;
    }
    if (c == '<') {
      if (i + 1 < n && source[i + 1] == '=') {
        advance(2);
        push(TokenKind::kLessEq, "<=");
      } else {
        advance(1);
        push(TokenKind::kLess, "<");
      }
      continue;
    }
    if (c == '>') {
      if (i + 1 < n && source[i + 1] == '=') {
        advance(2);
        push(TokenKind::kGreaterEq, ">=");
      } else {
        advance(1);
        push(TokenKind::kGreater, ">");
      }
      continue;
    }
    if (c == '=') {
      if (i + 1 < n && source[i + 1] == '=') {
        advance(2);
        push(TokenKind::kEqEq, "==");
      } else {
        advance(1);
        push(TokenKind::kEqEq, "=");
      }
      continue;
    }
    if (c == '!') {
      if (i + 1 < n && source[i + 1] == '=') {
        advance(2);
        push(TokenKind::kNotEq, "!=");
        continue;
      }
      return fail(line, column, "expected '!='");
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      advance(1);
      std::string text;
      while (i < n && source[i] != quote) {
        if (source[i] == '\n') {
          return fail(tok_line, tok_column,
                          "unterminated string literal");
        }
        text.push_back(source[i]);
        advance(1);
      }
      if (i >= n) {
        return fail(tok_line, tok_column, "unterminated string literal");
      }
      advance(1);  // closing quote
      push(TokenKind::kString, text, Value(text));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      std::string text;
      bool is_double = false;
      if (c == '-') {
        text.push_back('-');
        advance(1);
      }
      while (i < n && (std::isdigit(static_cast<unsigned char>(source[i])) ||
                       source[i] == '.')) {
        if (source[i] == '.') {
          // A '.' not followed by a digit is the rule terminator.
          if (i + 1 >= n ||
              !std::isdigit(static_cast<unsigned char>(source[i + 1]))) {
            break;
          }
          if (is_double) break;
          is_double = true;
        }
        text.push_back(source[i]);
        advance(1);
      }
      std::optional<Value> value = ParseNumericLiteral(text);
      if (!value.has_value()) {
        if (error_span != nullptr) {  // the whole literal
          error_span->begin = {tok_line, tok_column};
          error_span->end = {line, column};
        }
        return LexError(tok_line, tok_column,
                        "invalid numeric literal '" + text + "'");
      }
      push(TokenKind::kNumber, text, *std::move(value));
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string text;
      while (i < n && (std::isalnum(static_cast<unsigned char>(source[i])) ||
                       source[i] == '_')) {
        text.push_back(source[i]);
        advance(1);
      }
      const bool is_var =
          std::isupper(static_cast<unsigned char>(text[0])) || text[0] == '_';
      push(is_var ? TokenKind::kVariable : TokenKind::kIdent, text);
      continue;
    }
    return fail(line, column,
                    std::string("unexpected character '") + c + "'");
  }
  tok_line = line;
  tok_column = column;
  push(TokenKind::kEof, "");
  return tokens;
}

}  // namespace datalog
}  // namespace pfql
