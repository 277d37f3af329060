#include "relational/text_io.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

namespace pfql {

namespace {

class TextParser {
 public:
  explicit TextParser(std::string_view text) : text_(text) {}

  StatusOr<Instance> Parse() {
    Instance instance;
    SkipWhitespaceAndComments();
    while (!AtEnd()) {
      PFQL_RETURN_NOT_OK(ParseRelation(&instance));
      SkipWhitespaceAndComments();
    }
    return instance;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  void Advance() {
    if (!AtEnd()) {
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at line " + std::to_string(line_));
  }

  void SkipWhitespaceAndComments() {
    for (;;) {
      while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
        Advance();
      }
      if (!AtEnd() && (Peek() == '#' || Peek() == '%')) {
        while (!AtEnd() && Peek() != '\n') Advance();
        continue;
      }
      return;
    }
  }

  Status Expect(char c) {
    SkipWhitespaceAndComments();
    if (Peek() != c) {
      return Error(std::string("expected '") + c + "', found '" + Peek() +
                   "'");
    }
    Advance();
    return Status::OK();
  }

  StatusOr<std::string> ParseWord() {
    SkipWhitespaceAndComments();
    std::string word;
    while (!AtEnd() &&
           (std::isalnum(static_cast<unsigned char>(Peek())) ||
            Peek() == '_')) {
      word.push_back(Peek());
      Advance();
    }
    if (word.empty()) return Error("expected an identifier");
    return word;
  }

  StatusOr<Value> ParseValue() {
    SkipWhitespaceAndComments();
    const char c = Peek();
    if (c == '"') {
      Advance();
      std::string out;
      while (!AtEnd() && Peek() != '"') {
        if (Peek() == '\\') {
          Advance();
          if (AtEnd()) return Error("dangling escape in string");
          char esc = Peek();
          if (esc == '"' || esc == '\\') {
            out.push_back(esc);
          } else if (esc == 'n') {
            out.push_back('\n');
          } else {
            return Error(std::string("unknown escape '\\") + esc + "'");
          }
          Advance();
        } else {
          out.push_back(Peek());
          Advance();
        }
      }
      if (AtEnd()) return Error("unterminated string literal");
      Advance();
      return Value(out);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
        c == '+') {
      std::string num;
      num.push_back(c);
      Advance();
      while (!AtEnd() &&
             (std::isdigit(static_cast<unsigned char>(Peek())) ||
              Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
              Peek() == '-' || Peek() == '+')) {
        // Signs are only valid right after an exponent marker.
        if ((Peek() == '-' || Peek() == '+') &&
            !(num.back() == 'e' || num.back() == 'E')) {
          break;
        }
        num.push_back(Peek());
        Advance();
      }
      std::optional<Value> value = ParseNumericLiteral(num);
      if (!value.has_value()) {
        return Error("invalid numeric literal '" + num + "'");
      }
      return *std::move(value);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      PFQL_ASSIGN_OR_RETURN(std::string word, ParseWord());
      return Value(word);
    }
    return Error(std::string("expected a value, found '") + c + "'");
  }

  Status ParseRelation(Instance* instance) {
    PFQL_ASSIGN_OR_RETURN(std::string keyword, ParseWord());
    if (keyword != "relation") {
      return Error("expected 'relation', found '" + keyword + "'");
    }
    PFQL_ASSIGN_OR_RETURN(std::string name, ParseWord());
    if (instance->Has(name)) {
      return Error("duplicate relation '" + name + "'");
    }

    PFQL_RETURN_NOT_OK(Expect('('));
    std::vector<std::string> columns;
    SkipWhitespaceAndComments();
    if (Peek() != ')') {
      for (;;) {
        PFQL_ASSIGN_OR_RETURN(std::string col, ParseWord());
        columns.push_back(std::move(col));
        SkipWhitespaceAndComments();
        if (Peek() == ',') {
          Advance();
          continue;
        }
        break;
      }
    }
    PFQL_RETURN_NOT_OK(Expect(')'));

    Schema schema(columns);
    PFQL_RETURN_NOT_OK(schema.Validate());
    RelationBuilder rel(schema);

    PFQL_RETURN_NOT_OK(Expect('{'));
    SkipWhitespaceAndComments();
    while (Peek() != '}') {
      PFQL_RETURN_NOT_OK(Expect('('));
      Tuple tuple;
      SkipWhitespaceAndComments();
      if (Peek() != ')') {
        for (;;) {
          PFQL_ASSIGN_OR_RETURN(Value v, ParseValue());
          tuple.Append(std::move(v));
          SkipWhitespaceAndComments();
          if (Peek() == ',') {
            Advance();
            continue;
          }
          break;
        }
      }
      PFQL_RETURN_NOT_OK(Expect(')'));
      if (tuple.size() != schema.size()) {
        return Error("tuple arity " + std::to_string(tuple.size()) +
                     " does not match schema " + schema.ToString() +
                     " in relation '" + name + "'");
      }
      rel.Add(std::move(tuple));
      SkipWhitespaceAndComments();
    }
    Advance();  // '}'
    PFQL_ASSIGN_OR_RETURN(Relation sealed, std::move(rel).Seal());
    instance->Set(name, std::move(sealed));
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

void FormatValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kInt:
      *out += std::to_string(v.AsInt());
      return;
    case ValueType::kDouble:
      *out += v.ToString();  // round-trips, and reads back as a double
      return;
    case ValueType::kString: {
      *out += '"';
      for (char c : v.AsString()) {
        if (c == '"' || c == '\\') *out += '\\';
        if (c == '\n') {
          *out += "\\n";
          continue;
        }
        *out += c;
      }
      *out += '"';
      return;
    }
  }
}

}  // namespace

StatusOr<Instance> ParseInstanceText(std::string_view text) {
  TextParser parser(text);
  return parser.Parse();
}

std::string FormatInstance(const Instance& instance) {
  std::string out;
  for (const auto& [name, rel] : instance.relations()) {
    out += "relation " + name + "(";
    for (size_t i = 0; i < rel->schema().size(); ++i) {
      if (i > 0) out += ", ";
      out += rel->schema().column(i);
    }
    out += ") {\n";
    for (const auto& t : rel->tuples()) {
      out += "  (";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        FormatValue(t[i], &out);
      }
      out += ")\n";
    }
    out += "}\n";
  }
  return out;
}

StatusOr<Instance> LoadInstanceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseInstanceText(buffer.str());
}

}  // namespace pfql
