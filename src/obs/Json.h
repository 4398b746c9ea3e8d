//===- obs/Json.h - Minimal JSON value model, writer, parser ----*- C++ -*-===//
//
// Part of the StrideProf project, a reproduction of Youfeng Wu, "Efficient
// Discovery of Regular Stride Patterns in Irregular Programs and Its Use in
// Compiler Prefetching" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON library for the observability layer: run
/// reports, Chrome trace events, and bench regression files are all emitted
/// through JsonValue, and the schema-validation tests parse them back with
/// the same class. Objects preserve insertion order so emitted reports are
/// stable and diffable.
///
//===----------------------------------------------------------------------===//

#ifndef SPROF_OBS_JSON_H
#define SPROF_OBS_JSON_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sprof {

/// The deepest nesting of arrays and objects JsonValue::parse accepts. The
/// parser recurses once per level, so the bound keeps hostile input from
/// exhausting the stack. The deepest artifact the writers produce nests 8
/// levels (a sprof.bench_report/1).
inline constexpr unsigned JsonMaxDepth = 256;

/// One JSON value: null, boolean, number (integer or double), string,
/// array, or object. Build with the static factories and set/push, read
/// back with the as*/get accessors.
class JsonValue {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() = default;
  JsonValue(bool V) : K(Kind::Bool), B(V) {}
  JsonValue(int64_t V) : K(Kind::Int), I(V) {}
  JsonValue(uint64_t V) : K(Kind::Int), I(static_cast<int64_t>(V)) {}
  JsonValue(int V) : K(Kind::Int), I(V) {}
  JsonValue(unsigned V) : K(Kind::Int), I(V) {}
  JsonValue(double V) : K(Kind::Double), D(V) {}
  JsonValue(std::string V) : K(Kind::String), S(std::move(V)) {}
  JsonValue(std::string_view V) : K(Kind::String), S(V) {}
  JsonValue(const char *V) : K(Kind::String), S(V) {}

  static JsonValue array() {
    JsonValue V;
    V.K = Kind::Array;
    return V;
  }
  static JsonValue object() {
    JsonValue V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }

  bool asBool() const { return B; }
  /// Integer view of a number (doubles are truncated).
  int64_t asInt() const {
    return K == Kind::Double ? static_cast<int64_t>(D) : I;
  }
  uint64_t asUInt() const { return static_cast<uint64_t>(asInt()); }
  double asDouble() const {
    return K == Kind::Int ? static_cast<double>(I) : D;
  }
  const std::string &asString() const { return S; }

  // -- Array access ------------------------------------------------------
  size_t size() const {
    return K == Kind::Object ? Members.size() : Items.size();
  }
  const JsonValue &at(size_t Index) const { return Items[Index]; }
  const std::vector<JsonValue> &items() const { return Items; }
  JsonValue &push(JsonValue V) {
    Items.push_back(std::move(V));
    return Items.back();
  }

  // -- Object access -----------------------------------------------------
  /// Sets (or replaces) \p Key. Returns *this so builds can chain.
  JsonValue &set(std::string_view Key, JsonValue V);
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue *get(std::string_view Key) const;
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  // -- Serialization -----------------------------------------------------
  /// Writes the value; \p Indent > 0 pretty-prints with that step.
  void write(std::ostream &OS, unsigned Indent = 2) const;
  std::string str(unsigned Indent = 2) const;

  /// Parses \p Text into \p Out. Returns false (and fills \p Error when
  /// given) on malformed input, including arrays and objects nested more
  /// than JsonMaxDepth deep.
  static bool parse(std::string_view Text, JsonValue &Out,
                    std::string *Error = nullptr);

private:
  void writeImpl(std::ostream &OS, unsigned Indent, unsigned Depth) const;

  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0.0;
  std::string S;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;
};

/// Writes \p V to \p Path (pretty-printed, trailing newline). Returns false
/// when the file cannot be opened.
bool writeJsonFile(const std::string &Path, const JsonValue &V);

} // namespace sprof

#endif // SPROF_OBS_JSON_H
