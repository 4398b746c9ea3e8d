//===- obs/Json.cpp - Minimal JSON value model, writer, parser -------------===//
//
// Part of the StrideProf project (see Json.h for the project reference).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

using namespace sprof;

JsonValue &JsonValue::set(std::string_view Key, JsonValue V) {
  for (auto &[Name, Value] : Members)
    if (Name == Key) {
      Value = std::move(V);
      return *this;
    }
  Members.emplace_back(std::string(Key), std::move(V));
  return *this;
}

const JsonValue *JsonValue::get(std::string_view Key) const {
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

namespace {

void writeEscaped(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\b':
      OS << "\\b";
      break;
    case '\f':
      OS << "\\f";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\r':
      OS << "\\r";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        OS << Buf;
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

void writeNewlineIndent(std::ostream &OS, unsigned Indent, unsigned Depth) {
  if (Indent == 0)
    return;
  OS << '\n';
  for (unsigned I = 0; I != Indent * Depth; ++I)
    OS << ' ';
}

} // namespace

void JsonValue::writeImpl(std::ostream &OS, unsigned Indent,
                          unsigned Depth) const {
  switch (K) {
  case Kind::Null:
    OS << "null";
    break;
  case Kind::Bool:
    OS << (B ? "true" : "false");
    break;
  case Kind::Int:
    OS << I;
    break;
  case Kind::Double: {
    if (!std::isfinite(D)) {
      // JSON has no Inf/NaN; emit null like most tolerant writers.
      OS << "null";
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    OS << Buf;
    break;
  }
  case Kind::String:
    writeEscaped(OS, S);
    break;
  case Kind::Array: {
    if (Items.empty()) {
      OS << "[]";
      break;
    }
    OS << '[';
    for (size_t Idx = 0; Idx != Items.size(); ++Idx) {
      if (Idx)
        OS << ',';
      writeNewlineIndent(OS, Indent, Depth + 1);
      Items[Idx].writeImpl(OS, Indent, Depth + 1);
    }
    writeNewlineIndent(OS, Indent, Depth);
    OS << ']';
    break;
  }
  case Kind::Object: {
    if (Members.empty()) {
      OS << "{}";
      break;
    }
    OS << '{';
    for (size_t Idx = 0; Idx != Members.size(); ++Idx) {
      if (Idx)
        OS << ',';
      writeNewlineIndent(OS, Indent, Depth + 1);
      writeEscaped(OS, Members[Idx].first);
      OS << (Indent ? ": " : ":");
      Members[Idx].second.writeImpl(OS, Indent, Depth + 1);
    }
    writeNewlineIndent(OS, Indent, Depth);
    OS << '}';
    break;
  }
  }
}

void JsonValue::write(std::ostream &OS, unsigned Indent) const {
  writeImpl(OS, Indent, 0);
}

std::string JsonValue::str(unsigned Indent) const {
  std::ostringstream OS;
  write(OS, Indent);
  return OS.str();
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class Parser {
public:
  Parser(std::string_view Text, std::string *Error)
      : Text(Text), Error(Error) {}

  bool run(JsonValue &Out) {
    if (!parseValue(Out))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing characters after value");
    return true;
  }

private:
  bool fail(const char *Message) {
    if (Error) {
      std::ostringstream OS;
      OS << Message << " at offset " << Pos;
      *Error = OS.str();
    }
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseValue(JsonValue &Out) {
    skipSpace();
    if (Pos == Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      if (Depth == JsonMaxDepth)
        return fail(("arrays and objects nested deeper than " +
                     std::to_string(JsonMaxDepth) + " levels")
                        .c_str());
      ++Depth;
      const bool Ok = C == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue(std::move(S));
      return true;
    }
    if (literal("null")) {
      Out = JsonValue();
      return true;
    }
    if (literal("true")) {
      Out = JsonValue(true);
      return true;
    }
    if (literal("false")) {
      Out = JsonValue(false);
      return true;
    }
    return parseNumber(Out);
  }

  bool parseObject(JsonValue &Out) {
    ++Pos; // '{'
    Out = JsonValue::object();
    skipSpace();
    if (consume('}'))
      return true;
    for (;;) {
      skipSpace();
      std::string Key;
      if (Pos == Text.size() || Text[Pos] != '"' || !parseString(Key))
        return fail("expected object key");
      if (!consume(':'))
        return fail("expected ':' after object key");
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out.set(Key, std::move(V));
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out) {
    ++Pos; // '['
    Out = JsonValue::array();
    if (consume(']'))
      return true;
    for (;;) {
      JsonValue V;
      if (!parseValue(V))
        return false;
      Out.push(std::move(V));
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos == Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int Hex = 0; Hex != 4; ++Hex) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // UTF-8 encode (BMP only; surrogate pairs are passed through as
        // two separately-encoded code units, which our writer never emits).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    bool IsDouble = false;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (std::isdigit(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '.' || C == 'e' || C == 'E' || C == '+' || C == '-') {
        IsDouble = true;
        ++Pos;
      } else {
        break;
      }
    }
    if (Pos == Start)
      return fail("expected a value");
    std::string Num(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    if (!IsDouble) {
      long long V = std::strtoll(Num.c_str(), &End, 10);
      if (End == Num.c_str() + Num.size()) {
        Out = JsonValue(static_cast<int64_t>(V));
        return true;
      }
    }
    double V = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size())
      return fail("malformed number");
    Out = JsonValue(V);
    return true;
  }

  std::string_view Text;
  std::string *Error;
  size_t Pos = 0;
  unsigned Depth = 0; ///< arrays and objects open at Pos
};

} // namespace

bool JsonValue::parse(std::string_view Text, JsonValue &Out,
                      std::string *Error) {
  return Parser(Text, Error).run(Out);
}

bool sprof::writeJsonFile(const std::string &Path, const JsonValue &V) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  V.write(OS);
  OS << '\n';
  return static_cast<bool>(OS);
}
