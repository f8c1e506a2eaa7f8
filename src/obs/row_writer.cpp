#include "obs/row_writer.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace pop::obs {

// JSON has no NaN/inf: write null, which the checker rejects as a
// non-number instead of the artifact failing to parse.
std::string Field::encode_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string Field::encode_str(std::string_view v) {
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

void RowVisitor::kind(const char* kind) {
  begin(kind);
  (*this)({{"run_id", run_id()}, {"ts", wall_ts_ms()}});
}

JsonlFile::~JsonlFile() {
  if (f_ != nullptr) std::fclose(f_);
}

void JsonlFile::begin(const char* kind) {
  line_ = "{\"kind\":" + Field("kind", kind).json;
}

void JsonlFile::field(const Field& f) {
  if (f.present) line_ += ",\"" + std::string(f.name) + "\":" + f.json;
}

void JsonlFile::end_row() {
  if (f_ == nullptr) f_ = std::fopen(path_.c_str(), "a");
  if (f_ == nullptr) return;
  line_ += "}\n";
  std::fputs(line_.c_str(), f_);
  std::fflush(f_);
}

void SchemaWriter::begin(const char* kind) {
  if (!kinds_.empty()) kinds_ += "\n  ],\n";
  kinds_ += "  " + Field("kind", kind).json + ": [";
}

void SchemaWriter::field(const Field& f) {
  static constexpr const char* kTypes[] = {"int", "num", "str", "flag"};
  if (kinds_.back() == '}') kinds_ += ',';
  kinds_ += "\n    {\"name\": \"" + std::string(f.name) + "\", \"type\": \"" +
            kTypes[static_cast<int>(f.type)] + "\"";
  if (f.checks & kOptional) kinds_ += ", \"optional\": true";
  if (f.checks & kMustBeZero) kinds_ += ", \"equals\": 0";
  if (f.checks & kPositive) kinds_ += ", \"min\": 1";
  kinds_ += "}";
}

std::string SchemaWriter::json() const {
  return "{\"tag\": \"kind\", \"kinds\": {\n" + kinds_ + "\n  ]\n}}\n";
}

}  // namespace pop::obs
