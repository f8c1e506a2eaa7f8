// Typed JSON Lines rows (the POPSMR_BENCH_JSON rail). A row kind is
// declared once, as a function that names each field and hands over its
// value:
//
//   void kv_row(obs::RowVisitor& v, const ScenarioSpec& spec, ...) {
//     v.kind("kv");  // the kind tag plus the run_id/ts stamp
//     v({{"scenario", spec.name}, {"mops", r.mops},
//        {"audit_violations", r.audit_violations,
//         obs::kOptional | obs::kMustBeZero, /*present=*/r.audit_on}});
//   }
//
// Two visitors walk the same function: JsonlFile writes the row, and
// SchemaWriter records every field's name, JSON type and checks, which
// `--emit-schema` hands to tools/check_bench_jsonl.py. A field's JSON
// type follows its C++ type: bool -> "flag" (written 0/1), integers ->
// "int", floating point -> "num", strings -> "str".
#pragma once

#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace pop::obs {

enum class FieldType { kInt, kNum, kStr, kFlag };

// What a field promises besides its type (bit set).
enum FieldCheck : unsigned {
  kNoCheck = 0,
  kOptional = 1u << 0,    // may be absent: `present` says whether it is
  kMustBeZero = 1u << 1,  // any other value fails the artifact
  kPositive = 1u << 2,    // must be >= 1
};

// One named value, JSON-encoded.
struct Field {
  template <class T>
  Field(const char* name, const T& v, unsigned checks = kNoCheck,
        bool present = true)
      : name(name), checks(checks), present(present) {
    if constexpr (std::is_same_v<T, bool>) {
      type = FieldType::kFlag;
      json.assign(1, v ? '1' : '0');
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      type = FieldType::kInt;
      json.assign(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    } else if constexpr (std::is_floating_point_v<T>) {
      type = FieldType::kNum;
      json = encode_num(v);
    } else {
      type = FieldType::kStr;
      json = encode_str(v);
    }
  }

  const char* name;
  FieldType type;
  unsigned checks;
  bool present;
  std::string json;

 private:
  static std::string encode_num(double v);
  static std::string encode_str(std::string_view v);
};

class RowVisitor {
 public:
  virtual ~RowVisitor() = default;

  // Opens a row of `kind`: the kind tag plus the run_id/ts stamp.
  void kind(const char* kind);

  void operator()(std::initializer_list<Field> fields) {
    for (const Field& f : fields) field(f);
  }

 protected:
  virtual void begin(const char* kind) = 0;
  virtual void field(const Field& f) = 0;
};

// Appends rows to a JSON Lines file. Inert when the path is empty; the
// file is opened by the first row, so a run that writes nothing leaves no
// file behind. Each row is flushed as it is written.
class JsonlFile final : public RowVisitor {
 public:
  explicit JsonlFile(std::string path) : path_(std::move(path)) {}
  ~JsonlFile() override;
  JsonlFile(const JsonlFile&) = delete;
  JsonlFile& operator=(const JsonlFile&) = delete;

  // Writes the row `row` declares for `args`.
  template <class... P, class... A>
  void write(void (*row)(RowVisitor&, P...), A&&... args) {
    if (path_.empty()) return;
    row(*this, std::forward<A>(args)...);
    end_row();
  }

 protected:
  void begin(const char* kind) override;
  void field(const Field& f) override;

 private:
  void end_row();

  std::string path_;
  std::FILE* f_ = nullptr;
  std::string line_;
};

// Records each kind's fields. json() renders the schema
// tools/check_bench_jsonl.py --schema loads:
//
//   {"tag": "kind", "kinds": {"<kind>": [
//     {"name": "run_id", "type": "int"},
//     {"name": "audit_violations", "type": "int", "optional": true,
//      "equals": 0}, ...], ...}}
//
// "type" is int | num | str | flag (bool-as-int: 0/1 or true/false);
// "min": 1 marks a field that must be >= 1.
class SchemaWriter final : public RowVisitor {
 public:
  std::string json() const;

 protected:
  void begin(const char* kind) override;
  void field(const Field& f) override;

 private:
  std::string kinds_;
};

}  // namespace pop::obs
